package passes

import (
	"repro/internal/aa"
	"repro/internal/ir"
	"repro/internal/telemetry"
)

// licm performs loop-invariant code motion: (1) hoists invariant pure
// instructions and provably non-clobbered invariant loads into the
// preheader, then (2) after a CSE round that merges freshly co-located
// address computations (so annotation pointers and access pointers are
// one value), register-promotes memory locations that are only accessed
// through a single invariant pointer inside the loop — LLVM's
// promoteLoopAccessesToScalars, the transform behind the paper's minmax,
// omega.c, toke.c, and delta_encoder.c case studies. Both steps hinge on
// NoAlias answers from the AA chain.
func licm(f *ir.Func, am *AnalysisManager) (hoisted, promoted int) {
	mod := am.Module()
	tel := am.Telemetry()
	mgr := am.AA()
	dt := am.Dom()
	loops := am.Loops()
	// Process inner loops first so promotions compose outward.
	ordered := make([]*ir.Loop, 0, len(loops))
	for depth := 8; depth >= 1; depth-- {
		for _, l := range loops {
			if l.Depth() == depth {
				ordered = append(ordered, l)
			}
		}
	}
	for _, l := range ordered {
		if l.Preheader == nil {
			continue
		}
		hoisted += hoistInvariants(mod, f, l, mgr, dt, tel)
	}
	// Hoisting co-locates duplicated GEP/convert chains; merge them so
	// promotion's value-keyed grouping (and unseq-aa's value-keyed facts)
	// see one pointer per location.
	earlyCSE(mod, f, mgr, nil)
	mgr.Refresh(f)
	for _, l := range ordered {
		if l.Preheader == nil {
			continue
		}
		promoted += promoteScalars(mod, f, l, mgr, dt, tel)
	}
	return hoisted, promoted
}

// definedInLoop reports whether v is an instruction defined inside l.
func definedInLoop(l *ir.Loop, v ir.Value) bool {
	in, ok := v.(*ir.Instr)
	if !ok {
		return false
	}
	return l.Contains(in.Block())
}

// hoistInvariants moves invariant pure instructions and safe invariant
// loads to the preheader, iterating to a fixpoint.
func hoistInvariants(mod *ir.Module, f *ir.Func, l *ir.Loop, mgr *aa.Manager, dt *ir.DomTree, tel *telemetry.Session) int {
	pre := l.Preheader
	hoisted := 0

	// Collect loop memory writes once per round for load hoisting.
	// Calls that may write are kept separately: with interprocedural
	// summaries each one gets a per-candidate CallModRef query instead
	// of vetoing every load hoist in the loop.
	writesIn := func() (ws, calls []*ir.Instr, ok bool) {
		for _, b := range l.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpStore, ir.OpVecStore, ir.OpMemset, ir.OpMemcpy:
					ws = append(ws, in)
				case ir.OpCall:
					if _, w := callEffects(mod, in); w {
						if !mgr.HasSummaries() {
							return nil, nil, false // unknown write: no load hoisting
						}
						calls = append(calls, in)
					}
				}
			}
		}
		return ws, calls, true
	}

	for round := 0; round < 4; round++ {
		writes, calls, writesKnown := writesIn()
		changed := false
		for _, b := range l.Blocks {
			// Only hoist from blocks that execute on every iteration.
			execEvery := true
			for _, latch := range l.Latches {
				if !dt.Dominates(b, latch) {
					execEvery = false
				}
			}
			if b != l.Header && !execEvery {
				continue
			}
			for i := 0; i < len(b.Instrs); i++ {
				in := b.Instrs[i]
				invariantOperands := true
				for _, a := range in.Args {
					if definedInLoop(l, a) {
						invariantOperands = false
						break
					}
				}
				if !invariantOperands {
					continue
				}
				canHoist := false
				isLoadHoist := false
				switch {
				case isPureValueOp(in):
					canHoist = true
				case in.Op == ir.OpLoad && !in.Volatile && writesKnown:
					canHoist = true
					isLoadHoist = true
					mgr.ResetWindow()
					for _, w := range writes {
						ptr, _ := memLoc(w)
						if ptr == nil {
							canHoist = false
							break
						}
						if mgr.Alias(aa.Location{Ptr: in.Args[0], Size: accessSize(in), Cls: in.Cls},
							locOf(w)) != aa.NoAlias {
							canHoist = false
							break
						}
					}
					if canHoist {
						for _, c := range calls {
							if mgr.CallModRef(c, aa.Location{Ptr: in.Args[0], Size: accessSize(in), Cls: in.Cls})&aa.ModEffect != 0 {
								canHoist = false
								break
							}
						}
					}
					// The load must execute on every iteration to be safe
					// to speculate into the preheader.
					if !execEvery && b != l.Header {
						canHoist = false
					}
				}
				if !canHoist {
					continue
				}
				// Move to the preheader, before its terminator.
				removeAt(b, i)
				i--
				insertBeforeTerm(pre, in)
				hoisted++
				changed = true
				if isLoadHoist {
					emitRemark(tel, mgr, "licm", "LICMHoisted", f.Name, l.Header.Name)
				}
			}
		}
		if !changed {
			break
		}
	}
	return hoisted
}

func insertBeforeTerm(b *ir.Block, in *ir.Instr) {
	n := len(b.Instrs)
	if n > 0 && b.Instrs[n-1].IsTerminator() {
		b.InsertBefore(n-1, in)
	} else {
		b.Append(in)
	}
}

// promoteScalars register-promotes loop memory accessed only through one
// invariant pointer: preheader load into a fresh alloca slot, in-loop
// accesses retargeted to the slot, and stores sunk to every exit edge.
func promoteScalars(mod *ir.Module, f *ir.Func, l *ir.Loop, mgr *aa.Manager, dt *ir.DomTree, tel *telemetry.Session) int {
	pre := l.Preheader

	// Group loop accesses by exact pointer value. Conditional accesses
	// are fine: promoted accesses become register moves, and sinking the
	// final value at the exits is safe because our execution model is
	// single-threaded and loads cannot fault (LLVM needs
	// guaranteed-dereferenceable for the same transform) — this is what
	// lets the gcc omega.c pattern (stores under if/else arms) promote.
	type group struct {
		ptr    ir.Value
		loads  []*ir.Instr
		stores []*ir.Instr
		cls    ir.Class
	}
	// groupOrder keeps first-access order: promotion iterates it instead of
	// the map so emitted preheader loads, exit sinks, and AA query counts
	// are identical on every compile of the same input.
	groups := map[ir.Value]*group{}
	var groupOrder []ir.Value
	var others []*ir.Instr // memory ops not in any group (by pointer)
	var calls []*ir.Instr  // calls with memory effects, summary-checked per group
	for _, b := range l.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpLoad, ir.OpStore:
				if in.Volatile {
					others = append(others, in)
					continue
				}
				ptr := in.Args[0]
				if definedInLoop(l, ptr) {
					others = append(others, in)
					continue
				}
				// Scalar alloca slots are already register-class; routing
				// them through another slot would be churn.
				if al, isAl := ptr.(*ir.Instr); isAl && al.Op == ir.OpAlloca && al.AllocSz <= 8 {
					others = append(others, in)
					continue
				}
				g := groups[ptr]
				if g == nil {
					g = &group{ptr: ptr}
					groups[ptr] = g
					groupOrder = append(groupOrder, ptr)
				}
				if in.Op == ir.OpLoad {
					g.loads = append(g.loads, in)
					g.cls = in.Cls
				} else {
					g.stores = append(g.stores, in)
					g.cls = in.Args[1].Class()
				}
			case ir.OpVecLoad, ir.OpVecStore, ir.OpMemset, ir.OpMemcpy:
				others = append(others, in)
			case ir.OpCall:
				r, w := callEffects(mod, in)
				if r || w {
					if !mgr.HasSummaries() {
						return 0 // unknown memory effects: no promotion at all
					}
					calls = append(calls, in)
				}
			}
		}
	}

	promoted := 0
	var npreds predCounts // built on first use; promotion leaves the CFG alone
	for _, gptr := range groupOrder {
		g := groups[gptr]
		if len(g.stores) == 0 {
			continue // plain loads are handled by hoisting
		}
		if g.cls == ir.Void {
			continue
		}
		// Attribution window for this promotion candidate's queries.
		mgr.ResetWindow()
		// Mixed-width access groups are not promotable.
		ok := true
		for _, ld := range g.loads {
			if ld.Cls != g.cls {
				ok = false
			}
		}
		if !ok {
			continue
		}
		// No other loop access may alias this location.
		size := g.cls.Size()
		for _, o := range others {
			ptr, _ := memLoc(o)
			if ptr == nil {
				ok = false
				break
			}
			if mgr.Alias(aa.Location{Ptr: g.ptr, Size: size, Cls: g.cls},
				locOf(o)) != aa.NoAlias {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// While the location lives in a register slot, no call may
		// observe (read) or update (write) it behind the loop's back.
		for _, c := range calls {
			if mgr.CallModRef(c, aa.Location{Ptr: g.ptr, Size: size, Cls: g.cls}) != 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, optr := range groupOrder {
			og := groups[optr]
			if og == g {
				continue
			}
			if len(og.stores) == 0 && len(og.loads) == 0 {
				continue
			}
			osz := og.cls.Size()
			if osz == 0 {
				osz = 8
			}
			// Distinct pointer groups must be disjoint unless both are
			// read-only.
			if len(g.stores) > 0 || len(og.stores) > 0 {
				if mgr.Alias(aa.Location{Ptr: g.ptr, Size: size, Cls: g.cls},
					aa.Location{Ptr: og.ptr, Size: osz, Cls: og.cls}) != aa.NoAlias {
					ok = false
					break
				}
			}
		}
		if !ok {
			continue
		}

		// Sinking the final value needs a dedicated exit block per exit
		// edge (our structured lowering provides them); bail out before
		// mutating anything if an exit target is shared.
		if npreds == nil {
			npreds = f.PredCounts()
		}
		exitsOK := true
		for _, e := range l.Exits {
			if npreds.of(f, e[1]) != 1 {
				exitsOK = false
			}
		}
		if !exitsOK {
			continue
		}

		// Promote: tmp = alloca; preheader: tmp <- load ptr; loop
		// accesses retargeted; exits: ptr <- load tmp.
		var gsp ir.SrcSpan // span of the promoted access group
		if len(g.loads) > 0 {
			gsp = g.loads[0].Span
		} else if len(g.stores) > 0 {
			gsp = g.stores[0].Span
		}
		entry := f.Entry()
		tmp := &ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, Name: "promote", AllocSz: size, Span: gsp}
		entry.InsertBefore(0, tmp)

		preLoad := &ir.Instr{Op: ir.OpLoad, Cls: g.cls, Args: []ir.Value{g.ptr}, Span: gsp}
		insertBeforeTerm(pre, preLoad)
		preStore := &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{tmp, preLoad}, Span: gsp}
		insertBeforeTerm(pre, preStore)

		for _, ld := range g.loads {
			ld.Args[0] = tmp
		}
		for _, st := range g.stores {
			st.Args[0] = tmp
		}

		// Sink the final value on every exit edge.
		for _, e := range l.Exits {
			exit := e[1]
			reload := &ir.Instr{Op: ir.OpLoad, Cls: g.cls, Args: []ir.Value{tmp}, Span: gsp}
			exit.InsertBefore(0, reload)
			sink := &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{g.ptr, reload}, Span: gsp}
			exit.InsertBefore(1, sink)
		}
		promoted++
		emitRemark(tel, mgr, "licm", "LICMPromoted", f.Name, l.Header.Name)
	}
	return promoted
}
