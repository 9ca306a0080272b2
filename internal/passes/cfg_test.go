package passes_test

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/workload"
)

// The map-based CFG layer the block-ID tables replaced, kept as
// oracles: predecessor maps rebuilt per call, dominators and loop
// bodies keyed by *ir.Block, and simplifycfg rebuilding predecessors
// and the block list after every merge and every select.

func oraclePreds(f *ir.Func) map[*ir.Block][]*ir.Block {
	preds := make(map[*ir.Block][]*ir.Block, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	return preds
}

type oracleDom struct {
	idom  map[*ir.Block]*ir.Block
	order map[*ir.Block]int
}

func oracleComputeDom(f *ir.Func) *oracleDom {
	entry := f.Entry()
	dt := &oracleDom{idom: map[*ir.Block]*ir.Block{}, order: map[*ir.Block]int{}}
	if entry == nil {
		return dt
	}
	seen := map[*ir.Block]bool{}
	var post []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		seen[b] = true
		for _, s := range b.Succs() {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(entry)
	var rpo []*ir.Block
	for i := len(post) - 1; i >= 0; i-- {
		rpo = append(rpo, post[i])
	}
	for i, b := range rpo {
		dt.order[b] = i
	}
	preds := oraclePreds(f)
	dt.idom[entry] = entry
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			var newIdom *ir.Block
			for _, p := range preds[b] {
				if dt.idom[p] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = dt.intersect(p, newIdom)
				}
			}
			if newIdom != nil && dt.idom[b] != newIdom {
				dt.idom[b] = newIdom
				changed = true
			}
		}
	}
	return dt
}

func (dt *oracleDom) intersect(a, b *ir.Block) *ir.Block {
	for a != b {
		for dt.order[a] > dt.order[b] {
			a = dt.idom[a]
		}
		for dt.order[b] > dt.order[a] {
			b = dt.idom[b]
		}
	}
	return a
}

func (dt *oracleDom) dominates(a, b *ir.Block) bool {
	if a == b {
		return true
	}
	for b != nil {
		id := dt.idom[b]
		if id == b || id == nil {
			return false
		}
		if id == a {
			return true
		}
		b = id
	}
	return false
}

type oracleLoop struct {
	header    *ir.Block
	latches   []*ir.Block
	blocks    map[*ir.Block]bool
	preheader *ir.Block
	exits     [][2]*ir.Block // in map order: compare as a set
	parent    *oracleLoop
}

func oracleFindLoops(f *ir.Func, dt *oracleDom) []*oracleLoop {
	preds := oraclePreds(f)
	byHeader := map[*ir.Block]*oracleLoop{}
	var loops []*oracleLoop
	for _, b := range f.Blocks {
		if _, ok := dt.idom[b]; !ok {
			continue
		}
		for _, s := range b.Succs() {
			if !dt.dominates(s, b) {
				continue
			}
			l := byHeader[s]
			if l == nil {
				l = &oracleLoop{header: s, blocks: map[*ir.Block]bool{s: true}}
				byHeader[s] = l
				loops = append(loops, l)
			}
			l.latches = append(l.latches, b)
			var stack []*ir.Block
			if !l.blocks[b] {
				l.blocks[b] = true
				stack = append(stack, b)
			}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range preds[x] {
					if !l.blocks[p] {
						l.blocks[p] = true
						stack = append(stack, p)
					}
				}
			}
		}
	}
	for _, l := range loops {
		var outside []*ir.Block
		for _, p := range preds[l.header] {
			if !l.blocks[p] {
				outside = append(outside, p)
			}
		}
		if len(outside) == 1 {
			l.preheader = outside[0]
		}
		for b := range l.blocks {
			for _, s := range b.Succs() {
				if !l.blocks[s] {
					l.exits = append(l.exits, [2]*ir.Block{b, s})
				}
			}
		}
	}
	for _, l := range loops {
		for _, outer := range loops {
			if outer == l || !outer.blocks[l.header] {
				continue
			}
			if l.parent == nil || len(outer.blocks) < len(l.parent.blocks) {
				l.parent = outer
			}
		}
	}
	return loops
}

// oracleSimplifyCFG is the former simplifycfg: predecessors rebuilt and
// the block list copied after every merge, and the scan restarted from
// the top.
func oracleSimplifyCFG(f *ir.Func) int {
	changed := oracleFormSelects(f)
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		if c, ok := t.Args[0].(*ir.Const); ok && !c.Cls.IsFloat() {
			target := t.Else
			if c.I != 0 {
				target = t.Then
			}
			t.Op, t.Args, t.Target, t.Then, t.Else = ir.OpBr, nil, target, nil, nil
			changed++
		} else if t.Then == t.Else {
			t.Op, t.Args, t.Target, t.Then, t.Else = ir.OpBr, nil, t.Then, nil, nil
			changed++
		}
	}
	reach := map[*ir.Block]bool{}
	var stack []*ir.Block
	if e := f.Entry(); e != nil {
		reach[e] = true
		stack = append(stack, e)
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs() {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	var kept []*ir.Block
	for _, b := range f.Blocks {
		if reach[b] {
			kept = append(kept, b)
		} else {
			changed++
		}
	}
	f.Blocks = kept
	for {
		merged := false
		preds := oraclePreds(f)
		for _, b := range f.Blocks {
			t := b.Terminator()
			if t == nil || t.Op != ir.OpBr {
				continue
			}
			s := t.Target
			if s == f.Entry() || s == b || len(preds[s]) != 1 {
				continue
			}
			b.Instrs = append(b.Instrs[:len(b.Instrs)-1], s.Instrs...)
			for _, in := range s.Instrs {
				ir.SetBlock(in, b)
			}
			s.Instrs = nil
			var kept2 []*ir.Block
			for _, x := range f.Blocks {
				if x != s {
					kept2 = append(kept2, x)
				}
			}
			f.Blocks = kept2
			changed++
			merged = true
			break
		}
		if !merged {
			return changed
		}
	}
}

func oracleFormSelects(f *ir.Func) int {
	formed := 0
	for {
		preds := oraclePreds(f)
		done := true
		for _, a := range f.Blocks {
			t := a.Terminator()
			if t == nil || t.Op != ir.OpCondBr || t.Then == t.Else {
				continue
			}
			tb, eb := t.Then, t.Else
			if len(preds[tb]) != 1 || len(preds[eb]) != 1 {
				continue
			}
			tpure, tst, tok := passes.DiamondArm(tb)
			epure, est, eok := passes.DiamondArm(eb)
			if !tok || !eok || tst.Args[0] != est.Args[0] {
				continue
			}
			jt := tb.Terminator().Target
			if jt != eb.Terminator().Target {
				continue
			}
			cls := tst.Args[1].Class()
			if est.Args[1].Class() != cls {
				continue
			}
			cond := t.Args[0]
			a.Instrs = a.Instrs[:len(a.Instrs)-1]
			for _, in := range append(tpure, epure...) {
				ir.SetBlock(in, a)
				a.Instrs = append(a.Instrs, in)
			}
			sel := a.Append(&ir.Instr{Op: ir.OpSelect, Cls: cls,
				Args: []ir.Value{cond, tst.Args[1], est.Args[1]}, Span: tst.Span})
			a.Append(&ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{tst.Args[0], sel}, Span: tst.Span})
			a.Append(&ir.Instr{Op: ir.OpBr, Cls: ir.Void, Target: jt, Span: tst.Span})
			tb.Instrs, eb.Instrs = nil, nil
			formed++
			done = false
			break
		}
		if done {
			return formed
		}
		var kept []*ir.Block
		for _, b := range f.Blocks {
			if len(b.Instrs) > 0 || b == f.Entry() {
				kept = append(kept, b)
			}
		}
		f.Blocks = kept
	}
}

// cfgProbe is a no-op pass that checks the block-ID CFG layer against
// the oracles on the IR as the next pass will see it: predecessor
// lists, immediate dominators and dominance, every loop's header,
// latches, body, preheader, exits and parent, and simplifycfg's result
// on a clone.
type cfgProbe struct {
	t     *testing.T
	prog  string
	funcs *int
	loops *int
	merge *int
	// reused is one tree recomputed for every function the probe sees,
	// as vm.Compile reuses one across a module's functions.
	reused *ir.DomTree
}

func (cfgProbe) Name() string { return "cfgprobe" }

func (p cfgProbe) Run(f *ir.Func, _ *passes.AnalysisManager) (passes.Stats, passes.Preserved) {
	t, where := p.t, p.prog+":"+f.Name
	*p.funcs++
	preds, opreds := f.Preds(), oraclePreds(f)
	for _, b := range f.Blocks {
		if got, want := preds.Of(b), opreds[b]; !sameBlocks(got, want) {
			t.Errorf("%s: preds of %s are %s, oracle %s", where, b.Name, names(got), names(want))
		}
	}

	dt, odt := ir.ComputeDom(f), oracleComputeDom(f)
	p.reused.Compute(f)
	for _, tree := range []*ir.DomTree{dt, p.reused} {
		for _, b := range f.Blocks {
			_, reach := odt.idom[b]
			if tree.Reachable(b) != reach || tree.IDom(b) != odt.idom[b] {
				t.Errorf("%s: %s reachable %t idom %v, oracle %t %v", where, b.Name, tree.Reachable(b), tree.IDom(b), reach, odt.idom[b])
			}
		}
		// Dominance on every pair, or on a stride of pairs in large bodies.
		stride := 1 + len(f.Blocks)/48
		for i, a := range f.Blocks {
			for j := i % stride; j < len(f.Blocks); j += stride {
				b := f.Blocks[j]
				if tree.Dominates(a, b) != odt.dominates(a, b) {
					t.Errorf("%s: dominates(%s, %s) = %t, oracle disagrees", where, a.Name, b.Name, tree.Dominates(a, b))
				}
			}
		}
	}

	loops, oloops := ir.FindLoops(f, dt), oracleFindLoops(f, odt)
	if len(loops) != len(oloops) {
		t.Errorf("%s: %d loops, oracle %d", where, len(loops), len(oloops))
		return passes.Stats{}, ^passes.PreserveNone
	}
	index := map[*ir.Loop]int{}
	for i, l := range loops {
		index[l] = i
	}
	for i, l := range loops {
		*p.loops++
		ol := oloops[i]
		if l.Header != ol.header || !sameBlocks(l.Latches, ol.latches) || l.Preheader != ol.preheader {
			t.Errorf("%s: loop %d header/latches/preheader differ from the oracle", where, i)
		}
		var body []*ir.Block
		var exits [][2]*ir.Block
		for _, b := range f.Blocks {
			if l.Contains(b) != ol.blocks[b] {
				t.Errorf("%s: loop %s: Contains(%s) = %t, oracle disagrees", where, l.Header.Name, b.Name, l.Contains(b))
			}
			if ol.blocks[b] {
				body = append(body, b)
				for _, s := range b.Succs() {
					if !ol.blocks[s] {
						exits = append(exits, [2]*ir.Block{b, s})
					}
				}
			}
		}
		if !sameBlocks(l.Blocks, body) || len(ol.blocks) != len(body) {
			t.Errorf("%s: loop %s body %s, oracle in block order %s", where, l.Header.Name, names(l.Blocks), names(body))
		}
		if !sameEdges(l.Exits, exits) || !sameEdgeSet(ol.exits, exits) {
			t.Errorf("%s: loop %s exits differ from the oracle's in block order", where, l.Header.Name)
		}
		switch {
		case l.Parent == nil && ol.parent == nil:
		case l.Parent == nil || ol.parent == nil || oloops[index[l.Parent]] != ol.parent:
			t.Errorf("%s: loop %s parent differs from the oracle", where, l.Header.Name)
		}
	}

	got, want := ir.CloneFunc(f), ir.CloneFunc(f)
	n, on := passes.SimplifyCFG(got), oracleSimplifyCFG(want)
	*p.merge += n
	if n != on || got.String() != want.String() {
		t.Errorf("%s: simplifycfg changed %d, oracle %d; IR equal: %t", where, n, on, got.String() == want.String())
	}
	for _, b := range got.Blocks {
		for _, in := range b.Instrs {
			if in.Block() != b {
				t.Errorf("%s: after simplifycfg %%v%d is in %s but names %v", where, in.ID, b.Name, in.Block())
			}
		}
	}
	if problems := got.Verify(); len(problems) != 0 {
		t.Errorf("%s: verify after simplifycfg: %v", where, problems)
	}
	return passes.Stats{}, ^passes.PreserveNone
}

func sameBlocks(a, b []*ir.Block) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameEdges(a, b [][2]*ir.Block) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameEdgeSet(a, b [][2]*ir.Block) bool {
	count := map[[2]*ir.Block]int{}
	for _, e := range a {
		count[e]++
	}
	for _, e := range b {
		count[e]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return len(a) == len(b)
}

func names(bs []*ir.Block) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name
	}
	return out
}

// cfgCorpus is the oracle corpus plus the first unit of every
// SPEC-shaped benchmark.
func cfgCorpus(t *testing.T) []workload.Program {
	units := oracleCorpus(t)
	for _, b := range workload.SpecSuite()[1:] {
		units = append(units, workload.GenerateUnits(b)[0])
	}
	return units
}

// TestCFGMatchesOracle compiles the corpus with a cfgProbe ahead of
// every default-pipeline pass and at the end.
func TestCFGMatchesOracle(t *testing.T) {
	var all []string
	for _, p := range passes.DefaultPipeline().Passes() {
		all = append(all, p.Name())
	}
	var funcs, loops, merged int
	reused := &ir.DomTree{}
	for _, u := range cfgCorpus(t) {
		compileProbed(t, u, cfgProbe{t: t, prog: u.Name, funcs: &funcs, loops: &loops, merge: &merged, reused: reused}, all...)
	}
	if funcs == 0 || loops == 0 || merged == 0 {
		t.Fatalf("the probe saw %d functions, %d loops, %d simplifycfg changes", funcs, loops, merged)
	}
	t.Logf("%d function states, %d loops, %d simplifycfg changes checked", funcs, loops, merged)
}

// chainsFunc builds a function whose entry branches to two chains of
// n blocks that rejoin: simplifycfg merges each chain into its head,
// 2(n-1) merges.
func chainsFunc(n int) *ir.Func {
	p := &ir.Param{Name: "p", Cls: ir.I64}
	f := &ir.Func{Name: "chains", Ret: ir.I64, Params: []*ir.Param{p}}
	entry := f.NewBlock("entry")
	var heads, tails [2]*ir.Block
	for c := range heads {
		var prev *ir.Block
		for i := 0; i < n; i++ {
			b := f.NewBlock("chain")
			b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{p, ir.ConstInt(ir.I64, int64(i))}})
			if prev == nil {
				heads[c] = b
			} else {
				prev.Append(&ir.Instr{Op: ir.OpBr, Cls: ir.Void, Target: b})
			}
			prev = b
		}
		tails[c] = prev
	}
	join := f.NewBlock("join")
	join.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{p}})
	for _, b := range tails {
		b.Append(&ir.Instr{Op: ir.OpBr, Cls: ir.Void, Target: join})
	}
	cond := entry.Append(&ir.Instr{Op: ir.OpCmp, Cls: ir.I64, Pred: ir.Lt, Args: []ir.Value{p, ir.ConstInt(ir.I64, 0)}})
	entry.Append(&ir.Instr{Op: ir.OpCondBr, Cls: ir.Void, Args: []ir.Value{cond}, Then: heads[0], Else: heads[1]})
	return f
}

// TestSimplifyCFGChains pins the merge result on chainsFunc against the
// oracle.
func TestSimplifyCFGChains(t *testing.T) {
	f, ref := chainsFunc(6), chainsFunc(6)
	if got, want := passes.SimplifyCFG(f), oracleSimplifyCFG(ref); got != 10 || want != 10 {
		t.Fatalf("simplifycfg changed %d, oracle %d, want 10", got, want)
	}
	if f.String() != ref.String() {
		t.Errorf("simplifycfg IR differs from the oracle:\n%s\noracle:\n%s", f, ref)
	}
	if len(f.Blocks) != 4 {
		t.Errorf("%d blocks left, want entry, two chain heads and the join", len(f.Blocks))
	}
}

// TestSimplifyCFGAllocs gates simplifycfg's allocations: its
// predecessor counts, reach set and walk stack are allocated once per
// call and each chain head's instruction list grows once for its whole
// chain, so the count does not depend on how many merges it makes.
func TestSimplifyCFGAllocs(t *testing.T) {
	if passes.RaceEnabled() {
		t.Skip("race instrumentation adds allocations inside simplifycfg")
	}
	allocs := func(n int) float64 {
		const runs = 20
		fns := make([]*ir.Func, runs+1) // AllocsPerRun adds a warm-up call
		for i := range fns {
			fns[i] = chainsFunc(n)
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			passes.SimplifyCFG(fns[next])
			next++
		})
	}
	small, large := allocs(4), allocs(64)
	if small != large || large > 5 {
		t.Errorf("simplifycfg made %.1f allocations per call with 6 merges and %.1f with 126, want one constant of at most 5", small, large)
	}
}

// nestedDiamondFunc builds a store diamond whose then-arm is itself the
// head of a store diamond, laid out outer head first: forming the inner
// diamond turns its head into an arm of the outer one, which comes
// earlier in f.Blocks.
func nestedDiamondFunc() *ir.Func {
	p := &ir.Param{Name: "p", Cls: ir.Ptr}
	c := &ir.Param{Name: "c", Cls: ir.I64, Idx: 1}
	f := &ir.Func{Name: "nested", Ret: ir.Void, Params: []*ir.Param{p, c}}
	a, x, y := f.NewBlock("a"), f.NewBlock("x"), f.NewBlock("y")
	tb, eb, join := f.NewBlock("t"), f.NewBlock("e"), f.NewBlock("join")
	a.Append(&ir.Instr{Op: ir.OpCondBr, Cls: ir.Void, Args: []ir.Value{c}, Then: x, Else: y})
	c2 := x.Append(&ir.Instr{Op: ir.OpCmp, Cls: ir.I64, Pred: ir.Gt, Args: []ir.Value{c, ir.ConstInt(ir.I64, 4)}})
	x.Append(&ir.Instr{Op: ir.OpCondBr, Cls: ir.Void, Args: []ir.Value{c2}, Then: tb, Else: eb})
	for i, arm := range []*ir.Block{tb, eb, y} {
		arm.Append(&ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{p, ir.ConstInt(ir.I64, int64(i))}})
		arm.Append(&ir.Instr{Op: ir.OpBr, Cls: ir.Void, Target: join})
	}
	join.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void})
	return f
}

// TestFormSelectsNested pins that forming a diamond rescans for the
// one it enables earlier in the block list, as the oracle's restart
// from the top does: both diamonds become selects in one call, with
// the oracle's instruction IDs.
func TestFormSelectsNested(t *testing.T) {
	f, ref := nestedDiamondFunc(), nestedDiamondFunc()
	got, want := passes.SimplifyCFG(f), oracleSimplifyCFG(ref)
	if got != want || f.String() != ref.String() {
		t.Fatalf("simplifycfg changed %d, oracle %d:\n%s\noracle:\n%s", got, want, f, ref)
	}
	selects := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpSelect {
				selects++
			}
		}
	}
	if selects != 2 || len(f.Blocks) != 1 {
		t.Errorf("%d selects in %d blocks, want 2 in one:\n%s", selects, len(f.Blocks), f)
	}
}
