package passes_test

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/passes"
)

// oracleBuildUses is the former map-based use analysis: value ->
// using instructions, appended in block order.
func oracleBuildUses(f *ir.Func) map[ir.Value][]*ir.Instr {
	uses := make(map[ir.Value][]*ir.Instr)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a != nil {
					uses[a] = append(uses[a], in)
				}
			}
		}
	}
	return uses
}

// oracleDCE is the former dce, which rebuilt a use-count map and a
// store-only map on every fixpoint round.
func oracleDCE(f *ir.Func) int {
	removed := 0
	for {
		uses := map[ir.Value]int{}
		storeOnly := map[ir.Value]bool{}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpAlloca {
					storeOnly[in] = true
				}
			}
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpMustNotAlias {
					continue
				}
				for ai, a := range in.Args {
					uses[a]++
					if _, isAl := storeOnly[a]; isAl {
						if !(in.Op == ir.OpStore && ai == 0) {
							delete(storeOnly, a)
						}
					}
				}
			}
		}
		changed := false
		for _, b := range f.Blocks {
			for i := 0; i < len(b.Instrs); i++ {
				in := b.Instrs[i]
				dead := false
				switch {
				case passes.IsPureValueOp(in) && uses[in] == 0:
					dead = true
				case in.Op == ir.OpLoad && !in.Volatile && uses[in] == 0:
					dead = true
				case in.Op == ir.OpAlloca && uses[in] == 0:
					dead = true
				case in.Op == ir.OpStore && !in.Volatile && storeOnly[in.Args[0]]:
					dead = true
				case in.Op == ir.OpAlloca && storeOnly[in] && uses[in] > 0:
				case in.Op == ir.OpVecLoad && uses[in] == 0:
					dead = true
				case in.Op == ir.OpMustNotAlias:
					a0, ok0 := in.Args[0].(*ir.Instr)
					a1, ok1 := in.Args[1].(*ir.Instr)
					if (ok0 && uses[a0] == 0 && !inFunc(f, a0)) ||
						(ok1 && uses[a1] == 0 && !inFunc(f, a1)) {
						dead = true
					}
				}
				if dead {
					b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
					i--
					removed++
					changed = true
				}
			}
		}
		if !changed {
			return removed
		}
	}
}

// useProbe is a no-op pass that checks the flat use analyses against
// the map-based oracles on the IR as the next pass will see it: every
// instruction's CSR use list must equal the oracle's list in order, and
// dce on one clone must remove what oracleDCE removes on another.
type useProbe struct {
	t    *testing.T
	prog string
	n    *int
}

func (useProbe) Name() string { return "useprobe" }

func (p useProbe) Run(f *ir.Func, _ *passes.AnalysisManager) (passes.Stats, passes.Preserved) {
	where := p.prog + ":" + f.Name
	lists, oracle := passes.BuildUseLists(f), oracleBuildUses(f)
	check := func(in *ir.Instr) {
		got, want := lists.Of(in), oracle[in]
		if len(got) != len(want) {
			p.t.Errorf("%s: %%v%d has %d users, oracle %d", where, in.ID, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				p.t.Errorf("%s: %%v%d user %d is %%v%d, oracle %%v%d", where, in.ID, i, got[i].ID, want[i].ID)
			}
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			check(in)
			*p.n++
		}
	}
	// Deleted instructions a mustnotalias still names have users too.
	for v := range oracle {
		if in, ok := v.(*ir.Instr); ok && in.Block() != nil && !inFunc(f, in) {
			check(in)
		}
	}

	flat, ref := ir.CloneFunc(f), ir.CloneFunc(f)
	nFlat, nRef := passes.DCE(flat), oracleDCE(ref)
	if nFlat != nRef || flat.String() != ref.String() {
		p.t.Errorf("%s: dce removed %d, oracle %d; IR equal: %t", where, nFlat, nRef, flat.String() == ref.String())
	}
	return passes.Stats{}, ^passes.PreserveNone
}

func inFunc(f *ir.Func, target *ir.Instr) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in == target {
				return true
			}
		}
	}
	return false
}

// TestUseListsMatchOracle compiles the oracle corpus with a useProbe
// ahead of every mem2reg, vectorize and dce run (and at the end) and
// checks the CSR use lists and the flat dce against their map-based
// oracles there.
func TestUseListsMatchOracle(t *testing.T) {
	n := 0
	for _, u := range oracleCorpus(t) {
		compileProbed(t, u, useProbe{t: t, prog: u.Name, n: &n}, "mem2reg", "vectorize", "dce")
	}
	if n == 0 {
		t.Fatal("the probe saw no instructions")
	}
	t.Logf("%d instructions checked", n)
}

// deadChainFunc builds a function that dce needs many fixpoint rounds
// for: a chain of pure ops feeding only the next (one link dies per
// round), a store-only slot (its stores die first, the slot a round
// later), and a mustnotalias over the chain's head (which does not keep
// it alive and goes with it). Only the return of a parameter survives.
func deadChainFunc(links int) *ir.Func {
	p := &ir.Param{Name: "p", Cls: ir.I64}
	f := &ir.Func{Name: "chain", Ret: ir.I64, Params: []*ir.Param{p}}
	b := f.NewBlock("entry")
	slot := b.Append(&ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, Name: "s", AllocSz: 8})
	var v ir.Value = p
	var head *ir.Instr
	for i := 0; i < links; i++ {
		in := b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{v, ir.ConstInt(ir.I64, 1)}})
		if head == nil {
			head = in
		}
		v = in
	}
	b.Append(&ir.Instr{Op: ir.OpMustNotAlias, Cls: ir.Void, Args: []ir.Value{head, slot}})
	b.Append(&ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{slot, p}})
	b.Append(&ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{slot, ir.ConstInt(ir.I64, 2)}})
	b.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{p}})
	return f
}

// TestDCEFlatRules pins dce's result on deadChainFunc against the
// oracle: every link, the intrinsic, both stores and the slot go.
func TestDCEFlatRules(t *testing.T) {
	const links = 6
	want := links + 4
	f, ref := deadChainFunc(links), deadChainFunc(links)
	if got, refN := passes.DCE(f), oracleDCE(ref); got != want || refN != want {
		t.Fatalf("dce removed %d, oracle %d, want %d", got, refN, want)
	}
	if f.String() != ref.String() {
		t.Errorf("dce IR differs from the oracle:\n%s\noracle:\n%s", f, ref)
	}
	if problems := f.Verify(); len(problems) != 0 {
		t.Errorf("verify after dce: %v", problems)
	}
}

// TestDCEAllocs gates dce's allocations: its tables are allocated once
// per call, so a call costs at most 2 allocations however many
// fixpoint rounds it runs.
func TestDCEAllocs(t *testing.T) {
	const runs = 20
	fns := make([]*ir.Func, runs+1) // AllocsPerRun adds a warm-up call
	for i := range fns {
		fns[i] = deadChainFunc(16)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		passes.DCE(fns[next])
		next++
	})
	if allocs > 2 {
		t.Errorf("dce made %.1f allocations per call, want at most 2", allocs)
	}
}

// TestDCEIntrinsicOperandPresence pins which mustnotalias operands
// count as still present: one deleted earlier in the same round does
// not, and neither does an instruction of another function, even when
// its ID is that of an instruction in the body. Both intrinsics go, as
// under the oracle.
func TestDCEIntrinsicOperandPresence(t *testing.T) {
	build := func() *ir.Func {
		p := &ir.Param{Name: "p", Cls: ir.Ptr}
		other := &ir.Func{Name: "other"}
		ob := other.NewBlock("entry")
		ob.Append(&ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, Name: "o0", AllocSz: 8})
		foreign := ob.Append(&ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, Name: "o1", AllocSz: 8})

		f := &ir.Func{Name: "presence", Ret: ir.Void, Params: []*ir.Param{p}}
		b := f.NewBlock("entry")
		dead := b.Append(&ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr, Args: []ir.Value{p, ir.ConstInt(ir.I64, 1)}, Scale: 8})
		// ID 1, the foreign operand's, is this intrinsic's own.
		b.Append(&ir.Instr{Op: ir.OpMustNotAlias, Cls: ir.Void, Args: []ir.Value{foreign, p}})
		b.Append(&ir.Instr{Op: ir.OpMustNotAlias, Cls: ir.Void, Args: []ir.Value{p, dead}})
		b.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void})
		if foreign.ID != 1 || b.Instrs[1].ID != 1 {
			t.Fatalf("IDs %d and %d, want the foreign operand to share ID 1", foreign.ID, b.Instrs[1].ID)
		}
		return f
	}
	f, ref := build(), build()
	if got, want := passes.DCE(f), oracleDCE(ref); got != 3 || want != 3 {
		t.Fatalf("dce removed %d, oracle %d, want 3", got, want)
	}
	if f.String() != ref.String() {
		t.Errorf("dce IR differs from the oracle:\n%s\noracle:\n%s", f, ref)
	}
}
