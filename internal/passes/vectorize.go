package passes

import (
	"repro/internal/aa"
	"repro/internal/ir"
)

// vectorizeLoopsOpt widens canonical innermost loops by W lanes.
//
// Legality model (a simplified LoopAccessAnalysis):
//
//   - unit-stride loads/stores indexed by the primary or a secondary
//     induction variable become vector memory ops;
//   - induction values used as data become iota vectors;
//   - register-class alloca accesses form reductions (acc = acc ⊕ x) or
//     secondary inductions (i = i + 1);
//   - loads through loop-invariant pointers are uniform scalars;
//   - every store stream must be provably independent from every other
//     access: whole-object disjointness is free; a value-keyed NoAlias
//     answer (what unseq-aa contributes) costs a runtime range guard that
//     does NOT count against the memcheck budget; a MayAlias pair costs a
//     guard that DOES count. When the budget (Options.MemcheckThreshold,
//     default 0 — mirroring a baseline that deems versioning
//     unprofitable) is exceeded, the loop is not vectorized.
//
// This is where the paper's extra NoAlias answers bite: they convert
// budget-consuming MayAlias checks into free ones, which is exactly the
// "LoopVectorize uses the extra aliasing information in its cost
// calculation" mechanism described for gcc's regmove.c.
func vectorizeLoopsOpt(f *ir.Func, am *AnalysisManager, width, memcheckBudget int) int {
	if width < 2 {
		return 0
	}
	mgr := am.AA()
	tel := am.Telemetry()
	loops := am.Loops()
	count := 0
	for _, l := range loops {
		if !l.IsInnermost(loops) {
			continue
		}
		cl, ok := recognize(f, l)
		if !ok || loopAlreadyTransformed(cl) {
			continue
		}
		if hasVectorOps(cl.body) {
			continue
		}
		// Attribution window for this loop's dependence queries.
		mgr.ResetWindow()
		plan, ok := planVectorization(f, cl, mgr, am.Uses(), width, memcheckBudget)
		if !ok {
			continue
		}
		emitVectorLoop(f, cl, plan, width)
		am.InvalidateUses()
		count++
		emitRemark(tel, mgr, "vectorize", "LoopVectorized", f.Name, cl.header.Name)
	}
	return count
}

// stream describes one unit-stride memory access in the body.
type stream struct {
	instr *ir.Instr // the load or store
	gep   *ir.Instr // address computation
	base  ir.Value  // invariant base pointer
}

// reduction describes acc = acc ⊕ x on a register-class alloca.
type reduction struct {
	alloca  *ir.Instr
	loadIn  *ir.Instr // load acc inside body
	combine *ir.Instr // the ⊕ instruction
	store   *ir.Instr // store acc
	op      ir.Op
}

// secIV is a secondary induction variable: a register slot incremented by
// exactly 1 each iteration (imagick's `u++, i++` pattern).
type secIV struct {
	alloca   *ir.Instr
	incStore *ir.Instr
	incAdd   *ir.Instr
	loadIn   *ir.Instr // the load feeding the increment
}

// memReduction is acc ⊕= x where acc lives behind a loop-invariant
// pointer (imagick's kernel->positive_range). LLVM calls this an
// invariant-address reduction; it demands static independence from every
// stream (no budget-consuming checks), which is exactly where the
// paper's posrange-vs-values[i] fact becomes decisive.
type memReduction struct {
	ptr     ir.Value
	loadIn  *ir.Instr
	combine *ir.Instr
	store   *ir.Instr
	op      ir.Op
}

type vecPlan struct {
	loads      []stream
	stores     []stream
	reductions []reduction
	secIVs     []secIV
	memReds    []memReduction
	// uniformLoads are loads of never-stored alloca slots or of
	// loop-invariant pointers: the same (or unconditionally reloadable)
	// scalar every iteration.
	uniformLoads []*ir.Instr
	// guards are runtime range-disjointness checks: [ptrA, ptrB] base
	// values with the element scale per pair.
	guards [][2]ir.Value
	scales []int
	// pointGuards check a single location against a stream range:
	// [loc, streamBase].
	pointGuards [][2]ir.Value
	pointScales []int
}

// ivLoadKind classifies a load as primary IV, a secondary IV, or neither.
func (p *vecPlan) secOf(alloca ir.Value) *secIV {
	for i := range p.secIVs {
		if p.secIVs[i].alloca == alloca {
			return &p.secIVs[i]
		}
	}
	return nil
}

// isIndVarLoad reports whether v loads the primary or a secondary IV,
// possibly through a Convert.
func isIndVarLoad(cl *canonLoop, plan *vecPlan, v ir.Value) bool {
	in, ok := v.(*ir.Instr)
	if !ok {
		return false
	}
	if in.Op == ir.OpConvert {
		in, ok = in.Args[0].(*ir.Instr)
		if !ok {
			return false
		}
	}
	if in.Op != ir.OpLoad {
		return false
	}
	if in.Args[0] == cl.ivAlloca {
		return true
	}
	return plan.secOf(in.Args[0]) != nil
}

// planVectorization checks legality and collects the transformation
// plan. uses is the function's use lists (from the analysis manager; the
// caller invalidates it after each emitVectorLoop mutation).
func planVectorization(f *ir.Func, cl *canonLoop, mgr *aa.Manager, uses UseLists, width, budget int) (*vecPlan, bool) {
	plan := &vecPlan{}
	l := cl.l

	// Pass 1: find secondary IVs and reductions among alloca stores, and
	// invariant-address memory reductions.
	for _, in := range cl.body.Instrs {
		if in.Op != ir.OpStore {
			continue
		}
		al, ok := in.Args[0].(*ir.Instr)
		if !ok || al.Op != ir.OpAlloca || al.AllocSz > 8 {
			// Invariant non-alloca pointer read-modify-write?
			ptr := in.Args[0]
			if !definedInLoop(l, ptr) {
				if mr, ok := matchMemReduction(ptr, in); ok {
					plan.memReds = append(plan.memReds, mr)
				}
			}
			continue
		}
		if al == cl.ivAlloca {
			continue
		}
		// i = i + 1 → secondary IV.
		if add, ok := in.Args[1].(*ir.Instr); ok && add.Op == ir.OpAdd {
			if one, ok := add.Args[1].(*ir.Const); ok && !one.Cls.IsFloat() && one.I == 1 {
				if ld, ok := add.Args[0].(*ir.Instr); ok && ld.Op == ir.OpLoad && ld.Args[0] == al {
					plan.secIVs = append(plan.secIVs, secIV{alloca: al, incStore: in, incAdd: add, loadIn: ld})
					continue
				}
			}
		}
		red, ok := matchReduction(cl, al, in)
		if !ok {
			return nil, false
		}
		plan.reductions = append(plan.reductions, red)
	}
	// A slot can be only one of secondary IV / reduction, stored once.
	seen := map[*ir.Instr]int{}
	for _, s := range plan.secIVs {
		seen[s.alloca]++
	}
	for _, r := range plan.reductions {
		seen[r.alloca]++
	}
	for _, n := range seen {
		if n > 1 {
			return nil, false
		}
	}

	memRedLoads := map[*ir.Instr]bool{}
	memRedStores := map[*ir.Instr]bool{}
	memRedPtrs := map[ir.Value]int{}
	for _, mr := range plan.memReds {
		memRedLoads[mr.loadIn] = true
		memRedStores[mr.store] = true
		memRedPtrs[mr.ptr]++
	}
	for _, n := range memRedPtrs {
		if n > 1 {
			return nil, false // two reductions on one location
		}
	}

	// Pass 2: classify memory accesses.
	var allocaLoads []*ir.Instr
	for _, in := range cl.body.Instrs {
		switch in.Op {
		case ir.OpLoad:
			if in.Args[0] == cl.ivAlloca {
				continue
			}
			if memRedLoads[in] {
				continue
			}
			if _, isRedPtr := memRedPtrs[in.Args[0]]; isRedPtr {
				return nil, false // extra read of a reduction location
			}
			if al, ok := in.Args[0].(*ir.Instr); ok && al.Op == ir.OpAlloca && al.AllocSz <= 8 {
				allocaLoads = append(allocaLoads, in)
				continue
			}
			if gep, ok := in.Args[0].(*ir.Instr); ok && gep.Op == ir.OpGEP &&
				gep.Scale == in.Cls.Size() && isIndVarLoad(cl, plan, gep.Args[1]) &&
				!definedInLoop(l, gep.Args[0]) {
				plan.loads = append(plan.loads, stream{instr: in, gep: gep, base: gep.Args[0]})
				continue
			}
			if !definedInLoop(l, in.Args[0]) {
				// Uniform load through an invariant pointer (e.g.
				// args->sigma); needs a guard against each store stream.
				plan.uniformLoads = append(plan.uniformLoads, in)
				continue
			}
			return nil, false
		case ir.OpStore:
			if in.Args[0] == cl.ivAlloca {
				continue
			}
			if memRedStores[in] {
				continue
			}
			if al, ok := in.Args[0].(*ir.Instr); ok && al.Op == ir.OpAlloca && al.AllocSz <= 8 {
				continue // classified in pass 1
			}
			gep, okG := in.Args[0].(*ir.Instr)
			if !okG || gep.Op != ir.OpGEP || gep.Scale != in.Args[1].Class().Size() ||
				!isIndVarLoad(cl, plan, gep.Args[1]) || definedInLoop(l, gep.Args[0]) {
				return nil, false
			}
			plan.stores = append(plan.stores, stream{instr: in, gep: gep, base: gep.Args[0]})
		case ir.OpCall:
			if pureBuiltin(in.Callee) {
				continue
			}
			// A callee whose interprocedural summary proves it touches
			// no memory is as good as a pure builtin — but it has no
			// vector form, so it is only admissible with loop-invariant
			// arguments (the transform clones it as one uniform scalar
			// call per vector iteration).
			if !mgr.CallReadNone(in) {
				return nil, false
			}
			for _, a := range in.Args {
				if definedInLoop(l, a) {
					return nil, false
				}
			}
		case ir.OpVecLoad, ir.OpVecStore, ir.OpMemset, ir.OpMemcpy, ir.OpUBCheck:
			return nil, false
		case ir.OpMustNotAlias, ir.OpBr:
			// fine
		default:
			if !isPureValueOp(in) {
				return nil, false
			}
		}
	}
	if len(plan.stores) == 0 && len(plan.reductions) == 0 && len(plan.memReds) == 0 {
		return nil, false // nothing to gain
	}

	// Alloca-slot loads must belong to a reduction, a secondary IV, or a
	// never-stored slot (uniform).
	redLoads := map[*ir.Instr]bool{}
	secLoads := map[*ir.Instr]bool{}
	storedAllocas := map[ir.Value]bool{}
	for _, red := range plan.reductions {
		redLoads[red.loadIn] = true
		storedAllocas[red.alloca] = true
	}
	for _, s := range plan.secIVs {
		secLoads[s.loadIn] = true
		storedAllocas[s.alloca] = true
	}
	for _, in := range cl.body.Instrs {
		if in.Op == ir.OpStore {
			storedAllocas[in.Args[0]] = true
		}
	}
	for _, ld := range allocaLoads {
		if redLoads[ld] {
			continue
		}
		if storedAllocas[ld.Args[0]] {
			// Loads of IV slots are fine (mapped to iota vectors); any
			// other stored slot is an unsupported loop-carried scalar.
			if plan.secOf(ld.Args[0]) == nil {
				return nil, false
			}
			continue
		}
		plan.uniformLoads = append(plan.uniformLoads, ld)
	}

	// Reduction inputs must not feed anything but the reduction, and the
	// reduction value must not be used as data elsewhere (its in-loop
	// value is a vector partial sum, not the scalar running total).
	for _, red := range plan.reductions {
		for _, u := range uses.Of(red.loadIn) {
			if u != red.combine {
				return nil, false
			}
		}
		for _, u := range uses.Of(red.combine) {
			if u != red.store {
				return nil, false
			}
		}
	}
	// Secondary IV increments must feed only their store.
	for _, s := range plan.secIVs {
		for _, u := range uses.Of(s.incAdd) {
			if u != s.incStore {
				return nil, false
			}
		}
	}
	// Memory-reduction chains must stay private.
	for _, mr := range plan.memReds {
		for _, u := range uses.Of(mr.loadIn) {
			if u != mr.combine {
				return nil, false
			}
		}
		for _, u := range uses.Of(mr.combine) {
			if u != mr.store {
				return nil, false
			}
		}
	}
	// The primary increment may be CSE-shared only with address/data uses
	// — but its widened form feeds data incorrectly, so require it to
	// feed only its store (the iota path covers `i + 1` as data via a
	// separate instruction after CSE split... in practice CSE merges
	// them, so reject the shared case).
	for _, u := range uses.Of(cl.incAdd) {
		if u != cl.incStore {
			return nil, false
		}
	}

	// Dependence checks with the guard budget. The budget is only
	// granted when unseq-aa resolved at least one pair — the paper's
	// "extra aliasing information in the cost calculation": without
	// facts, runtime versioning is judged unprofitable.
	checksUsed := 0
	factResolved := false
	addGuard := func(a, b ir.Value, scale int, counts bool) bool {
		for i, g := range plan.guards {
			if (g[0] == a && g[1] == b) || (g[0] == b && g[1] == a) {
				_ = i
				return true // already guarded
			}
		}
		if counts {
			checksUsed++
		}
		if len(plan.guards) >= 8 {
			return false // bound preheader code growth
		}
		plan.guards = append(plan.guards, [2]ir.Value{a, b})
		plan.scales = append(plan.scales, scale)
		return true
	}
	// UnseqDecides additionally merges the fact's predicate id into the
	// manager's attribution window, so the LoopVectorized remark can name
	// the π predicate that flipped the cost calculation.
	unseqSaysNo := mgr.UnseqDecides

	allStreams := append(append([]stream{}, plan.loads...), plan.stores...)
	for _, st := range plan.stores {
		for _, other := range allStreams {
			if other.instr == st.instr {
				continue
			}
			if other.gep == st.gep || (other.base == st.base && other.gep.Off == st.gep.Off &&
				other.gep.Scale == st.gep.Scale && other.gep.Args[1] == st.gep.Args[1]) {
				continue // identical stream (a[i] = f(a[i])): same lane
			}
			if other.base == st.base {
				// Same base, different offsets or different index
				// variable: only the statically-safe non-multiple-delta
				// case is allowed.
				d := other.gep.Off - st.gep.Off
				if other.gep.Args[1] == st.gep.Args[1] && other.gep.Scale == st.gep.Scale &&
					d%st.gep.Scale != 0 {
					continue
				}
				return nil, false
			}
			res := mgr.Alias(locOf(st.instr), locOf(other.instr))
			switch {
			case res == aa.NoAlias && wholeObjectsDisjoint(st.base, other.base):
				// Free: disjoint identified objects.
			case res == aa.NoAlias:
				// Value-keyed fact (unseq-aa) or partial proof: needs a
				// range guard but costs no budget.
				if unseqSaysNo(locOf(st.instr), locOf(other.instr)) {
					factResolved = true
				}
				if !addGuard(st.base, other.base, st.gep.Scale, false) {
					return nil, false
				}
			default:
				// MayAlias: a runtime memcheck consuming budget.
				if !addGuard(st.base, other.base, st.gep.Scale, true) {
					return nil, false
				}
			}
		}
		// Uniform loads against this store stream.
		for _, ul := range plan.uniformLoads {
			res := mgr.Alias(aa.Location{Ptr: ul.Args[0], Size: accessSize(ul), Cls: ul.Cls},
				locOf(st.instr))
			if res == aa.NoAlias {
				if unseqSaysNo(aa.Location{Ptr: ul.Args[0], Size: accessSize(ul), Cls: ul.Cls},
					locOf(st.instr)) {
					factResolved = true
				}
				continue // proven: free (single point vs stream)
			}
			// MayAlias: point-vs-range check consuming budget.
			checksUsed++
			if len(plan.pointGuards) >= 8 {
				return nil, false
			}
			plan.pointGuards = append(plan.pointGuards, [2]ir.Value{ul.Args[0], st.base})
			plan.pointScales = append(plan.pointScales, st.gep.Scale)
		}
	}
	// Memory-reduction locations vs every stream (loads included — the
	// reduction's write must not feed any lane's read): LLVM's
	// invariant-address strictness demands a static NoAlias; a
	// value-keyed fact additionally gets a free range guard.
	for _, mr := range plan.memReds {
		mrLoc := aa.Location{Ptr: mr.ptr, Size: accessSize(mr.store), Cls: mr.store.Args[1].Class()}
		for _, other := range allStreams {
			res := mgr.Alias(mrLoc, locOf(other.instr))
			if res != aa.NoAlias {
				return nil, false
			}
			if unseqSaysNo(mrLoc, locOf(other.instr)) {
				factResolved = true
			}
			if len(plan.pointGuards) >= 8 {
				return nil, false
			}
			plan.pointGuards = append(plan.pointGuards, [2]ir.Value{mr.ptr, other.base})
			plan.pointScales = append(plan.pointScales, other.gep.Scale)
		}
	}
	// Memory reductions vs uniform loads and vs each other: single
	// locations, checked with free point comparisons.
	for _, mr := range plan.memReds {
		for _, ul := range plan.uniformLoads {
			if _, isAl := ul.Args[0].(*ir.Instr); isAl &&
				ul.Args[0].(*ir.Instr).Op == ir.OpAlloca {
				continue // register slot cannot alias a real location
			}
			res := mgr.Alias(
				aa.Location{Ptr: mr.ptr, Size: accessSize(mr.store), Cls: mr.store.Args[1].Class()},
				aa.Location{Ptr: ul.Args[0], Size: accessSize(ul), Cls: ul.Cls})
			if res == aa.NoAlias {
				continue
			}
			if len(plan.pointGuards) >= 8 {
				return nil, false
			}
			// Point-point check: scale 0 marks a single-cell range.
			checksUsed++
			plan.pointGuards = append(plan.pointGuards, [2]ir.Value{mr.ptr, ul.Args[0]})
			plan.pointScales = append(plan.pointScales, 0)
		}
	}
	if checksUsed > 0 && (!factResolved || checksUsed > budget) {
		return nil, false
	}
	return plan, true
}

// matchMemReduction matches store(p, op(load p, x)) through an invariant
// pointer.
func matchMemReduction(ptr ir.Value, st *ir.Instr) (memReduction, bool) {
	comb, ok := st.Args[1].(*ir.Instr)
	if !ok || (comb.Op != ir.OpAdd && comb.Op != ir.OpMul) {
		return memReduction{}, false
	}
	var ld *ir.Instr
	if x, ok := comb.Args[0].(*ir.Instr); ok && x.Op == ir.OpLoad && x.Args[0] == ptr {
		ld = x
	} else if x, ok := comb.Args[1].(*ir.Instr); ok && x.Op == ir.OpLoad && x.Args[0] == ptr {
		comb.Args[0], comb.Args[1] = comb.Args[1], comb.Args[0]
		ld = x
	}
	if ld == nil {
		return memReduction{}, false
	}
	return memReduction{ptr: ptr, loadIn: ld, combine: comb, store: st, op: comb.Op}, true
}

func wholeObjectsDisjoint(a, b ir.Value) bool {
	ga, oka := a.(*ir.Global)
	gb, okb := b.(*ir.Global)
	if oka && okb && ga != gb {
		return true
	}
	aal, okaa := a.(*ir.Instr)
	bal, okba := b.(*ir.Instr)
	isAlA := okaa && aal.Op == ir.OpAlloca
	isAlB := okba && bal.Op == ir.OpAlloca
	if isAlA && isAlB && aal != bal {
		return true
	}
	if (oka && isAlB) || (okb && isAlA) {
		return true
	}
	return false
}

// matchReduction matches store(acc, op(load acc, x)) or the commuted
// form, with op ∈ {add, mul} (reassociable; fp reassociation is the
// -ffast-math convention Polybench-style kernels are compiled with).
func matchReduction(cl *canonLoop, acc *ir.Instr, st *ir.Instr) (reduction, bool) {
	comb, ok := st.Args[1].(*ir.Instr)
	if !ok || (comb.Op != ir.OpAdd && comb.Op != ir.OpMul) {
		return reduction{}, false
	}
	var ld *ir.Instr
	if x, ok := comb.Args[0].(*ir.Instr); ok && x.Op == ir.OpLoad && x.Args[0] == acc {
		ld = x
	} else if x, ok := comb.Args[1].(*ir.Instr); ok && x.Op == ir.OpLoad && x.Args[0] == acc {
		comb.Args[0], comb.Args[1] = comb.Args[1], comb.Args[0]
		ld = x
	}
	if ld == nil {
		return reduction{}, false
	}
	return reduction{alloca: acc, loadIn: ld, combine: comb, store: st, op: comb.Op}, true
}

// emitVectorLoop rewrites the loop: preheader guards + vecLimit, a new
// vector header/body, a reduction-merge block, with the original loop as
// scalar remainder/fallback.
func emitVectorLoop(f *ir.Func, cl *canonLoop, plan *vecPlan, width int) {
	pre := cl.l.Preheader
	cls := cl.ivCls
	preMark := len(pre.Instrs)

	iv0, vecLimit := emitBlockCountSplit(pre, cl, width)

	// Range guards (loop versioning). On failure vecLimit collapses to
	// iv0 and the scalar loop runs everything.
	effLimit := cl.limit
	if cl.limitIncl {
		incl := &ir.Instr{Op: ir.OpAdd, Cls: cls, Args: []ir.Value{effLimit, ir.ConstInt(cls, 1)}}
		insertBeforeTerm(pre, incl)
		effLimit = incl
	}
	span := &ir.Instr{Op: ir.OpSub, Cls: cls, Args: []ir.Value{effLimit, iv0}}
	insertBeforeTerm(pre, span)
	span64 := &ir.Instr{Op: ir.OpConvert, Cls: ir.I64, Args: []ir.Value{span}}
	insertBeforeTerm(pre, span64)
	var okAll ir.Value
	andIn := func(c ir.Value) {
		if okAll == nil {
			okAll = c
			return
		}
		and := &ir.Instr{Op: ir.OpAnd, Cls: ir.I32, Args: []ir.Value{okAll, c}}
		insertBeforeTerm(pre, and)
		okAll = and
	}
	for gi, gp := range plan.guards {
		scale := plan.scales[gi]
		ext := &ir.Instr{Op: ir.OpMul, Cls: ir.I64,
			Args: []ir.Value{span64, ir.ConstInt(ir.I64, int64(scale))}}
		insertBeforeTerm(pre, ext)
		aEnd := &ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{gp[0], ext}}
		insertBeforeTerm(pre, aEnd)
		bEnd := &ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{gp[1], ext}}
		insertBeforeTerm(pre, bEnd)
		c1 := &ir.Instr{Op: ir.OpCmp, Cls: ir.I32, Pred: ir.ULe, Unsigned: true,
			Args: []ir.Value{aEnd, gp[1]}}
		insertBeforeTerm(pre, c1)
		c2 := &ir.Instr{Op: ir.OpCmp, Cls: ir.I32, Pred: ir.ULe, Unsigned: true,
			Args: []ir.Value{bEnd, gp[0]}}
		insertBeforeTerm(pre, c2)
		disjoint := &ir.Instr{Op: ir.OpOr, Cls: ir.I32, Args: []ir.Value{c1, c2}}
		insertBeforeTerm(pre, disjoint)
		andIn(disjoint)
	}
	for gi, gp := range plan.pointGuards {
		scale := plan.pointScales[gi]
		if scale == 0 {
			// Point-point: the two scalar cells must not overlap (8-byte
			// conservative width).
			d := &ir.Instr{Op: ir.OpSub, Cls: ir.I64, Args: []ir.Value{gp[0], gp[1]}}
			insertBeforeTerm(pre, d)
			c1 := &ir.Instr{Op: ir.OpCmp, Cls: ir.I32, Pred: ir.Ge,
				Args: []ir.Value{d, ir.ConstInt(ir.I64, 8)}}
			insertBeforeTerm(pre, c1)
			c2 := &ir.Instr{Op: ir.OpCmp, Cls: ir.I32, Pred: ir.Le,
				Args: []ir.Value{d, ir.ConstInt(ir.I64, -8)}}
			insertBeforeTerm(pre, c2)
			apart := &ir.Instr{Op: ir.OpOr, Cls: ir.I32, Args: []ir.Value{c1, c2}}
			insertBeforeTerm(pre, apart)
			andIn(apart)
			continue
		}
		ext := &ir.Instr{Op: ir.OpMul, Cls: ir.I64,
			Args: []ir.Value{span64, ir.ConstInt(ir.I64, int64(scale))}}
		insertBeforeTerm(pre, ext)
		bEnd := &ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{gp[1], ext}}
		insertBeforeTerm(pre, bEnd)
		c1 := &ir.Instr{Op: ir.OpCmp, Cls: ir.I32, Pred: ir.ULt, Unsigned: true,
			Args: []ir.Value{gp[0], gp[1]}}
		insertBeforeTerm(pre, c1)
		c2 := &ir.Instr{Op: ir.OpCmp, Cls: ir.I32, Pred: ir.UGe, Unsigned: true,
			Args: []ir.Value{gp[0], bEnd}}
		insertBeforeTerm(pre, c2)
		outside := &ir.Instr{Op: ir.OpOr, Cls: ir.I32, Args: []ir.Value{c1, c2}}
		insertBeforeTerm(pre, outside)
		andIn(outside)
	}
	if okAll != nil {
		sel := &ir.Instr{Op: ir.OpSelect, Cls: cls, Args: []ir.Value{okAll, vecLimit, iv0}}
		insertBeforeTerm(pre, sel)
		vecLimit = sel
	}

	vheader := f.NewBlock("vec.header")
	vbody := f.NewBlock("vec.body")
	vmerge := f.NewBlock("vec.merge")

	// Reduction accumulators: one wide alloca per reduction (register or
	// memory), initialized to the op identity.
	type vacc struct {
		scalarPtr ir.Value // the original accumulator location
		slot      *ir.Instr
		cls       ir.Class
		op        ir.Op
		loadIn    *ir.Instr
		combine   *ir.Instr
		store     *ir.Instr
	}
	identOf := func(op ir.Op, rcls ir.Class) ir.Value {
		switch {
		case op == ir.OpMul && rcls.IsFloat():
			return ir.ConstFloat(rcls, 1)
		case op == ir.OpMul:
			return ir.ConstInt(rcls, 1)
		case rcls.IsFloat():
			return ir.ConstFloat(rcls, 0)
		default:
			return ir.ConstInt(rcls, 0)
		}
	}
	var vaccs []vacc
	entry := f.Entry()
	addAcc := func(scalarPtr ir.Value, op ir.Op, loadIn, combine, store *ir.Instr) {
		rcls := store.Args[1].Class()
		slot := &ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, Name: "vec.acc", AllocSz: rcls.Size() * width, Span: store.Span}
		entry.InsertBefore(0, slot)
		splat := &ir.Instr{Op: ir.OpVecSplat, Cls: rcls, Width: width,
			Args: []ir.Value{identOf(op, rcls)}, Span: store.Span}
		insertBeforeTerm(pre, splat)
		vst := &ir.Instr{Op: ir.OpVecStore, Cls: rcls, Width: width, Args: []ir.Value{slot, splat}, Span: store.Span}
		insertBeforeTerm(pre, vst)
		vaccs = append(vaccs, vacc{scalarPtr: scalarPtr, slot: slot, cls: rcls, op: op,
			loadIn: loadIn, combine: combine, store: store})
	}
	for _, red := range plan.reductions {
		addAcc(red.alloca, red.op, red.loadIn, red.combine, red.store)
	}
	for _, mr := range plan.memReds {
		addAcc(mr.ptr, mr.op, mr.loadIn, mr.combine, mr.store)
	}

	// Guard/limit code in the preheader derives from the loop condition;
	// instructions stamped above (trip-count math, accumulator init) keep
	// their more specific spans.
	for _, in := range pre.Instrs[preMark-1 : len(pre.Instrs)-1] {
		if !in.Span.IsValid() {
			in.Span = cl.cmp.Span
		}
	}

	retarget(pre.Terminator(), cl.header, vheader)

	ivL := vheader.Append(&ir.Instr{Op: ir.OpLoad, Cls: cls, Args: []ir.Value{cl.ivAlloca}, Span: cl.ivLoadH.Span})
	c := vheader.Append(&ir.Instr{Op: ir.OpCmp, Cls: ir.I32, Pred: ir.Lt, Unsigned: cl.cmp.Unsigned,
		Args: []ir.Value{ivL, vecLimit}, Span: cl.cmp.Span})
	vheader.Append(&ir.Instr{Op: ir.OpCondBr, Cls: ir.Void, Args: []ir.Value{c},
		Then: vbody, Else: vmerge, Span: cl.cmp.Span})

	// Build the vector body.
	vmap := map[ir.Value]ir.Value{}    // original -> vector value
	uniform := map[ir.Value]ir.Value{} // original -> scalar clone
	ivLoads := map[*ir.Instr]bool{}    // loads mapped to iota vectors on demand
	isVec := func(v ir.Value) bool { _, ok := vmap[v]; return ok }
	scalarOf := func(v ir.Value) ir.Value {
		if u, ok := uniform[v]; ok {
			return u
		}
		return v
	}
	var vecOf func(v ir.Value, rcls ir.Class) ir.Value
	vecOf = func(v ir.Value, rcls ir.Class) ir.Value {
		if w, ok := vmap[v]; ok {
			return w
		}
		if in, ok := v.(*ir.Instr); ok && ivLoads[in] {
			// Induction value as data: splat(iv) + iota.
			sp := vbody.Append(&ir.Instr{Op: ir.OpVecSplat, Cls: in.Cls, Width: width,
				Args: []ir.Value{scalarOf(v)}})
			iota := vbody.Append(&ir.Instr{Op: ir.OpVecIota, Cls: in.Cls, Width: width})
			sum := vbody.Append(&ir.Instr{Op: ir.OpVecBin, Cls: in.Cls, Width: width,
				VecOp: ir.OpAdd, Args: []ir.Value{sp, iota}})
			vmap[v] = sum
			return sum
		}
		sp := vbody.Append(&ir.Instr{Op: ir.OpVecSplat, Cls: rcls, Width: width,
			Args: []ir.Value{scalarOf(v)}})
		vmap[v] = sp
		return sp
	}

	redByStore := map[*ir.Instr]*vacc{}
	redByLoad := map[*ir.Instr]*vacc{}
	for i := range vaccs {
		redByStore[vaccs[i].store] = &vaccs[i]
		redByLoad[vaccs[i].loadIn] = &vaccs[i]
	}
	secByStore := map[*ir.Instr]*secIV{}
	for i := range plan.secIVs {
		secByStore[plan.secIVs[i].incStore] = &plan.secIVs[i]
	}
	streamLoads := map[*ir.Instr]bool{}
	for _, s := range plan.loads {
		streamLoads[s.instr] = true
	}
	streamStores := map[*ir.Instr]bool{}
	for _, s := range plan.stores {
		streamStores[s.instr] = true
	}
	uniformLoadSet := map[*ir.Instr]bool{}
	for _, u := range plan.uniformLoads {
		uniformLoadSet[u] = true
	}

	emitInc := func(alloca *ir.Instr, icls ir.Class) {
		ld := vbody.Append(&ir.Instr{Op: ir.OpLoad, Cls: icls, Args: []ir.Value{alloca}})
		add := vbody.Append(&ir.Instr{Op: ir.OpAdd, Cls: icls,
			Args: []ir.Value{ld, ir.ConstInt(icls, int64(width))}})
		vbody.Append(&ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{alloca, add}})
	}

	for _, in := range cl.body.Instrs {
		// Everything the widening of this instruction appends (including
		// lazy splats materialized by vecOf) inherits its span.
		vbodyMark := len(vbody.Instrs)
		switch {
		case in == cl.incStore:
			emitInc(cl.ivAlloca, cls)

		case secByStore[in] != nil:
			s := secByStore[in]
			emitInc(s.alloca, s.incAdd.Cls)

		case in.Op == ir.OpLoad &&
			(in.Args[0] == cl.ivAlloca || plan.secOf(in.Args[0]) != nil):
			ld := vbody.Append(&ir.Instr{Op: ir.OpLoad, Cls: in.Cls, Args: []ir.Value{in.Args[0]}})
			uniform[in] = ld
			ivLoads[in] = true

		case uniformLoadSet[in]:
			ld := vbody.Append(&ir.Instr{Op: ir.OpLoad, Cls: in.Cls,
				Args: []ir.Value{scalarOf(in.Args[0])}})
			uniform[in] = ld

		case redByLoad[in] != nil:
			va := redByLoad[in]
			vl := vbody.Append(&ir.Instr{Op: ir.OpVecLoad, Cls: va.cls, Width: width,
				Args: []ir.Value{va.slot}})
			vmap[in] = vl

		case redByStore[in] != nil:
			va := redByStore[in]
			comb := vecOf(va.combine, va.cls)
			vbody.Append(&ir.Instr{Op: ir.OpVecStore, Cls: va.cls, Width: width,
				Args: []ir.Value{va.slot, comb}})

		case streamLoads[in]:
			gep := scalarOf(in.Args[0])
			vl := vbody.Append(&ir.Instr{Op: ir.OpVecLoad, Cls: in.Cls, Width: width,
				Args: []ir.Value{gep}})
			vmap[in] = vl

		case streamStores[in]:
			gep := scalarOf(in.Args[0])
			v := vecOf(in.Args[1], in.Args[1].Class())
			vbody.Append(&ir.Instr{Op: ir.OpVecStore, Cls: in.Args[1].Class(), Width: width,
				Args: []ir.Value{gep, v}})

		case in.Op == ir.OpConvert && isIotaSource(ivLoads, in.Args[0]):
			// A widened induction value: keep a scalar clone for address
			// computations and mark it as an iota source for data uses.
			cp := vbody.Append(&ir.Instr{Op: ir.OpConvert, Cls: in.Cls, Unsigned: in.Unsigned,
				Args: []ir.Value{scalarOf(in.Args[0])}})
			uniform[in] = cp
			ivLoads[in] = true

		case in.Op == ir.OpGEP:
			cp := vbody.Append(&ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr, Scale: in.Scale, Off: in.Off,
				Args: []ir.Value{scalarOf(in.Args[0]), scalarOf(in.Args[1])}})
			uniform[in] = cp

		case in.Op == ir.OpCall:
			// Non-builtin calls reach here only when planVectorization
			// admitted them: summary-proven ReadNone with loop-invariant
			// arguments, so anyVec is false and the uniform clone applies.
			anyVec := false
			for _, a := range in.Args {
				if isVec(a) || isIotaSource(ivLoads, a) {
					anyVec = true
				}
			}
			if anyVec {
				args := make([]ir.Value, len(in.Args))
				for i, a := range in.Args {
					args[i] = vecOf(a, ir.F64)
				}
				vc := vbody.Append(&ir.Instr{Op: ir.OpVecCall, Cls: in.Cls, Width: width,
					Callee: in.Callee, Args: args})
				vmap[in] = vc
			} else {
				args := make([]ir.Value, len(in.Args))
				for i, a := range in.Args {
					args[i] = scalarOf(a)
				}
				cp := vbody.Append(&ir.Instr{Op: ir.OpCall, Cls: in.Cls, Callee: in.Callee, Args: args})
				uniform[in] = cp
			}

		case in.Op == ir.OpSelect:
			if anyVecArg(vmap, ivLoads, in.Args) {
				m2 := vecOf(in.Args[0], ir.I32)
				x := vecOf(in.Args[1], in.Cls)
				y := vecOf(in.Args[2], in.Cls)
				vs := vbody.Append(&ir.Instr{Op: ir.OpVecSelect, Cls: in.Cls, Width: width,
					Args: []ir.Value{m2, x, y}})
				vmap[in] = vs
			} else {
				cp := vbody.Append(&ir.Instr{Op: ir.OpSelect, Cls: in.Cls,
					Args: []ir.Value{scalarOf(in.Args[0]), scalarOf(in.Args[1]), scalarOf(in.Args[2])}})
				uniform[in] = cp
			}

		case in.Op == ir.OpCmp:
			if anyVecArg(vmap, ivLoads, in.Args) {
				a := vecOf(in.Args[0], in.Args[0].Class())
				b := vecOf(in.Args[1], in.Args[1].Class())
				vc := vbody.Append(&ir.Instr{Op: ir.OpVecBin, Cls: ir.I32, Width: width,
					VecOp: ir.OpCmp, Pred: in.Pred, Unsigned: in.Unsigned, Args: []ir.Value{a, b}})
				vmap[in] = vc
			} else {
				cp := vbody.Append(&ir.Instr{Op: ir.OpCmp, Cls: in.Cls, Pred: in.Pred,
					Unsigned: in.Unsigned, Args: []ir.Value{scalarOf(in.Args[0]), scalarOf(in.Args[1])}})
				uniform[in] = cp
			}

		case isPureValueOp(in) && len(in.Args) == 2:
			if anyVecArg(vmap, ivLoads, in.Args) {
				a := vecOf(in.Args[0], in.Cls)
				b := vecOf(in.Args[1], in.Cls)
				vb := vbody.Append(&ir.Instr{Op: ir.OpVecBin, Cls: in.Cls, Width: width,
					VecOp: in.Op, Unsigned: in.Unsigned, Args: []ir.Value{a, b}})
				vmap[in] = vb
			} else {
				cp := vbody.Append(&ir.Instr{Op: in.Op, Cls: in.Cls, Unsigned: in.Unsigned,
					Scale: in.Scale, Off: in.Off,
					Args: []ir.Value{scalarOf(in.Args[0]), scalarOf(in.Args[1])}})
				uniform[in] = cp
			}

		case isPureValueOp(in) && len(in.Args) == 1:
			if anyVecArg(vmap, ivLoads, in.Args) {
				src := vecOf(in.Args[0], classOrSame(in, in.Args[0]))
				switch in.Op {
				case ir.OpNeg:
					zero := vbody.Append(&ir.Instr{Op: ir.OpVecSplat, Cls: in.Cls, Width: width,
						Args: []ir.Value{zeroConst(in.Cls)}})
					vb := vbody.Append(&ir.Instr{Op: ir.OpVecBin, Cls: in.Cls, Width: width,
						Unsigned: in.Unsigned, VecOp: ir.OpSub, Args: []ir.Value{zero, src}})
					vmap[in] = vb
				case ir.OpConvert:
					// Lane-wise convert: add a zero of the target class;
					// the interpreter's lane arithmetic performs the
					// conversion.
					zero := vbody.Append(&ir.Instr{Op: ir.OpVecSplat, Cls: in.Cls, Width: width,
						Args: []ir.Value{zeroConst(in.Cls)}})
					vb := vbody.Append(&ir.Instr{Op: ir.OpVecBin, Cls: in.Cls, Width: width,
						Unsigned: in.Unsigned, VecOp: ir.OpAdd, Args: []ir.Value{src, zero}})
					vmap[in] = vb
				case ir.OpNot:
					all := vbody.Append(&ir.Instr{Op: ir.OpVecSplat, Cls: in.Cls, Width: width,
						Args: []ir.Value{ir.ConstInt(in.Cls, -1)}})
					vb := vbody.Append(&ir.Instr{Op: ir.OpVecBin, Cls: in.Cls, Width: width,
						Unsigned: in.Unsigned, VecOp: ir.OpXor, Args: []ir.Value{src, all}})
					vmap[in] = vb
				default:
					cp := vbody.Append(&ir.Instr{Op: in.Op, Cls: in.Cls, Unsigned: in.Unsigned,
						Args: []ir.Value{scalarOf(in.Args[0])}})
					uniform[in] = cp
				}
			} else {
				cp := vbody.Append(&ir.Instr{Op: in.Op, Cls: in.Cls, Unsigned: in.Unsigned,
					Args: []ir.Value{scalarOf(in.Args[0])}})
				uniform[in] = cp
			}

		case in.Op == ir.OpMustNotAlias || in.Op == ir.OpBr:
			// Metadata / terminator: skip.

		default:
			// planVectorization guaranteed we never get here.
		}
		for _, ni := range vbody.Instrs[vbodyMark:] {
			ni.Span = in.Span
		}
	}
	vbody.Append(&ir.Instr{Op: ir.OpBr, Cls: ir.Void, Target: vheader, Span: cl.cmp.Span})

	// Merge block: fold vector accumulators into the scalar locations,
	// then fall into the scalar remainder loop.
	for _, va := range vaccs {
		sp := va.store.Span
		vl := vmerge.Append(&ir.Instr{Op: ir.OpVecLoad, Cls: va.cls, Width: width,
			Args: []ir.Value{va.slot}, Span: sp})
		red := vmerge.Append(&ir.Instr{Op: ir.OpVecReduce, Cls: va.cls, Width: width,
			VecOp: va.op, Args: []ir.Value{vl}, Span: sp})
		old := vmerge.Append(&ir.Instr{Op: ir.OpLoad, Cls: va.cls, Args: []ir.Value{va.scalarPtr}, Span: sp})
		comb := vmerge.Append(&ir.Instr{Op: va.op, Cls: va.cls, Args: []ir.Value{old, red}, Span: sp})
		vmerge.Append(&ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{va.scalarPtr, comb}, Span: sp})
	}
	vmerge.Append(&ir.Instr{Op: ir.OpBr, Cls: ir.Void, Target: cl.header, Span: cl.cmp.Span})
}

// anyVecArg reports whether any argument already has (or will need) a
// vector mapping.
func anyVecArg(vmap map[ir.Value]ir.Value, ivLoads map[*ir.Instr]bool, args []ir.Value) bool {
	for _, a := range args {
		if _, ok := vmap[a]; ok {
			return true
		}
		if isIotaSource(ivLoads, a) {
			return true
		}
	}
	return false
}

func isIotaSource(ivLoads map[*ir.Instr]bool, v ir.Value) bool {
	in, ok := v.(*ir.Instr)
	return ok && ivLoads[in]
}

func classOrSame(in *ir.Instr, arg ir.Value) ir.Class {
	if in.Op == ir.OpConvert {
		return arg.Class()
	}
	return in.Cls
}

func zeroConst(cls ir.Class) ir.Value {
	if cls.IsFloat() {
		return ir.ConstFloat(cls, 0)
	}
	return ir.ConstInt(cls, 0)
}
