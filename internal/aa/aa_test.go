package aa

import (
	"testing"

	"repro/internal/ir"
)

// buildFn creates a small function with two allocas, two GEP chains off a
// parameter, and a mustnotalias intrinsic, for exercising the analyses.
func buildFn() (fn *ir.Func, allocaA, allocaB *ir.Instr, p *ir.Param,
	gep0, gep8, gepVar *ir.Instr, fact *ir.Instr) {

	fn = &ir.Func{Name: "t", Ret: ir.Void}
	p = &ir.Param{Name: "p", Cls: ir.Ptr, Idx: 0}
	fn.Params = []*ir.Param{p}
	b := fn.NewBlock("entry")
	allocaA = b.Append(&ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, Name: "a", AllocSz: 8})
	allocaB = b.Append(&ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, Name: "b", AllocSz: 8})
	gep0 = b.Append(&ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr,
		Args: []ir.Value{p, ir.ConstInt(ir.I64, 0)}, Scale: 8})
	gep8 = b.Append(&ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr,
		Args: []ir.Value{p, ir.ConstInt(ir.I64, 1)}, Scale: 8})
	idx := b.Append(&ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{allocaA}})
	gepVar = b.Append(&ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr,
		Args: []ir.Value{p, idx}, Scale: 8})
	fact = b.Append(&ir.Instr{Op: ir.OpMustNotAlias, Cls: ir.Void,
		Args: []ir.Value{gep0, gepVar}})
	b.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void})
	return
}

func loc(v ir.Value, size int, cls ir.Class) Location {
	return Location{Ptr: v, Size: size, Cls: cls}
}

func TestBasicAADistinctAllocas(t *testing.T) {
	fn, a, b, _, _, _, _, _ := buildFn()
	ba := NewBasicAA(fn)
	if r := ba.Alias(loc(a, 8, ir.I64), loc(b, 8, ir.I64)); r != NoAlias {
		t.Errorf("distinct allocas: %v", r)
	}
}

func TestBasicAASameBaseConstOffsets(t *testing.T) {
	fn, _, _, _, gep0, gep8, _, _ := buildFn()
	ba := NewBasicAA(fn)
	if r := ba.Alias(loc(gep0, 8, ir.F64), loc(gep8, 8, ir.F64)); r != NoAlias {
		t.Errorf("p[0] vs p[1]: %v", r)
	}
	if r := ba.Alias(loc(gep0, 8, ir.F64), loc(gep0, 8, ir.F64)); r != MustAlias {
		t.Errorf("p[0] vs p[0]: %v", r)
	}
	// Overlapping: 8-byte access at 0 vs 4-byte access at 4.
	gp := gep0.Block()
	gep4 := gp.Append(&ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr,
		Args: []ir.Value{fn.Params[0], ir.ConstInt(ir.I64, 4)}, Scale: 1})
	if r := ba.Alias(loc(gep0, 8, ir.F64), loc(gep4, 4, ir.I32)); r != PartialAlias {
		t.Errorf("overlap: %v", r)
	}
}

func TestBasicAAVarIndexSameScale(t *testing.T) {
	fn, _, _, p, _, _, gepVar, _ := buildFn()
	ba := NewBasicAA(fn)
	// Same var index, different const offsets a[i].x vs a[i].y style:
	b := fn.Entry()
	gepVarOff := b.Append(&ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr,
		Args: []ir.Value{p, gepVar.Args[1]}, Scale: 8, Off: 4})
	_ = gepVarOff
	if r := ba.Alias(loc(gepVar, 4, ir.I32), loc(gepVarOff, 4, ir.I32)); r != NoAlias {
		t.Errorf("a[i]+0 (4B) vs a[i]+4 (4B): %v", r)
	}
}

func TestBasicAANonEscapingAlloca(t *testing.T) {
	fn, a, _, _, gep0, _, _, _ := buildFn()
	ba := NewBasicAA(fn)
	// a's address never escapes: cannot alias a pointer-derived access.
	if r := ba.Alias(loc(a, 8, ir.I64), loc(gep0, 8, ir.F64)); r != NoAlias {
		t.Errorf("non-escaping alloca vs param GEP: %v", r)
	}
}

func TestBasicAAEscapedAlloca(t *testing.T) {
	fn, a, _, _, gep0, _, _, _ := buildFn()
	// Escape a: pass it to a call.
	fn.Entry().Append(&ir.Instr{Op: ir.OpCall, Cls: ir.Void, Callee: "sink",
		Args: []ir.Value{a}})
	ba := NewBasicAA(fn)
	if r := ba.Alias(loc(a, 8, ir.I64), loc(gep0, 8, ir.F64)); r != MayAlias {
		t.Errorf("escaped alloca must be MayAlias vs unknown pointers: %v", r)
	}
}

func TestBasicAANonNegativeIndexRule(t *testing.T) {
	// pos at [0,1) vs history[x & 0xFF] at [2, ...): the xz-delta case.
	fn := &ir.Func{Name: "t2", Ret: ir.Void}
	p := &ir.Param{Name: "coder", Cls: ir.Ptr, Idx: 0}
	fn.Params = []*ir.Param{p}
	b := fn.NewBlock("entry")
	pos := b.Append(&ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr,
		Args: []ir.Value{p, ir.ConstInt(ir.I64, 0)}, Scale: 1, Off: 0})
	raw := b.Append(&ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{pos}})
	masked := b.Append(&ir.Instr{Op: ir.OpAnd, Cls: ir.I64,
		Args: []ir.Value{raw, ir.ConstInt(ir.I64, 255)}})
	hist := b.Append(&ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr,
		Args: []ir.Value{p, masked}, Scale: 1, Off: 2})
	b.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void})
	ba := NewBasicAA(fn)
	if r := ba.Alias(loc(pos, 1, ir.I8), loc(hist, 1, ir.I8)); r != NoAlias {
		t.Errorf("non-negative-index field rule: %v", r)
	}
	// Without provable non-negativity (raw index) it stays MayAlias.
	hist2 := b.Append(&ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr,
		Args: []ir.Value{p, raw}, Scale: 1, Off: 2})
	if r := ba.Alias(loc(pos, 1, ir.I8), loc(hist2, 1, ir.I8)); r != MayAlias {
		t.Errorf("unbounded index must stay MayAlias: %v", r)
	}
}

func TestTBAA(t *testing.T) {
	tb := NewTBAA()
	cases := []struct {
		a, b ir.Class
		want Result
	}{
		{ir.F64, ir.I32, NoAlias},
		{ir.F64, ir.F64, MayAlias},
		{ir.I8, ir.F64, MayAlias}, // char aliases everything
		{ir.I32, ir.I64, NoAlias},
		{ir.Ptr, ir.I64, MayAlias},
		{ir.Void, ir.F64, MayAlias}, // unknown class
	}
	for _, c := range cases {
		got := tb.Alias(Location{Cls: c.a, Size: c.a.Size()}, Location{Cls: c.b, Size: c.b.Size()})
		if got != c.want {
			t.Errorf("tbaa(%s, %s) = %v want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestUnseqAAExactAndSymmetric(t *testing.T) {
	fn, _, _, _, gep0, gep8, gepVar, _ := buildFn()
	u := NewUnseqAA(fn)
	if u.NumFacts() != 1 {
		t.Fatalf("facts: %d", u.NumFacts())
	}
	if r := u.Alias(loc(gep0, 8, ir.F64), loc(gepVar, 8, ir.F64)); r != NoAlias {
		t.Errorf("registered pair: %v", r)
	}
	if r := u.Alias(loc(gepVar, 8, ir.F64), loc(gep0, 8, ir.F64)); r != NoAlias {
		t.Errorf("pair must be symmetric: %v", r)
	}
	if r := u.Alias(loc(gep8, 8, ir.F64), loc(gepVar, 8, ir.F64)); r != MayAlias {
		t.Errorf("unregistered pair must stay MayAlias: %v", r)
	}
}

func TestUnseqAAResolvesThroughConverts(t *testing.T) {
	fn, _, _, _, gep0, _, gepVar, _ := buildFn()
	b := fn.Entry()
	cp := b.Append(&ir.Instr{Op: ir.OpConvert, Cls: ir.Ptr, Args: []ir.Value{gep0}})
	u := NewUnseqAA(fn)
	if r := u.Alias(loc(cp, 8, ir.F64), loc(gepVar, 8, ir.F64)); r != NoAlias {
		t.Errorf("copy of a registered pointer must match: %v", r)
	}
}

func TestManagerChainAndStats(t *testing.T) {
	fn, a, bAl, _, gep0, _, gepVar, _ := buildFn()
	m := NewManager(fn, true)
	// basic-aa resolves this one: no unseq credit.
	if r := m.Alias(loc(a, 8, ir.I64), loc(bAl, 8, ir.I64)); r != NoAlias {
		t.Fatalf("chain: %v", r)
	}
	if m.Stats.UnseqNoAlias != 0 {
		t.Errorf("basic-aa answers must not credit unseq-aa")
	}
	// Only unseq-aa resolves this one.
	if r := m.Alias(loc(gep0, 8, ir.F64), loc(gepVar, 8, ir.F64)); r != NoAlias {
		t.Fatalf("chain unseq: %v", r)
	}
	if m.Stats.UnseqNoAlias != 1 {
		t.Errorf("UnseqNoAlias = %d want 1", m.Stats.UnseqNoAlias)
	}
	if m.Stats.Queries != 2 || m.Stats.NoAlias != 2 {
		t.Errorf("stats: %+v", m.Stats)
	}
	// Without unseq-aa in the chain the same query is MayAlias.
	m2 := NewManager(fn, false)
	if r := m2.Alias(loc(gep0, 8, ir.F64), loc(gepVar, 8, ir.F64)); r != MayAlias {
		t.Errorf("baseline chain should not know the fact: %v", r)
	}
}

func TestManagerRefreshDropsStaleFacts(t *testing.T) {
	fn, _, _, _, gep0, _, gepVar, fact := buildFn()
	m := NewManager(fn, true)
	if m.Unseq().NumFacts() != 1 {
		t.Fatal("setup")
	}
	// Remove the intrinsic and refresh: fact must disappear.
	b := fn.Entry()
	var out []*ir.Instr
	for _, in := range b.Instrs {
		if in != fact {
			out = append(out, in)
		}
	}
	b.Instrs = out
	m.Refresh(fn)
	if m.Unseq().NumFacts() != 0 {
		t.Errorf("stale fact survived refresh")
	}
	if r := m.Alias(loc(gep0, 8, ir.F64), loc(gepVar, 8, ir.F64)); r != MayAlias {
		t.Errorf("after refresh: %v", r)
	}
}

func TestDecompose(t *testing.T) {
	fn, _, _, p, _, _, _, _ := buildFn()
	b := fn.Entry()
	inner := b.Append(&ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr,
		Args: []ir.Value{p, ir.ConstInt(ir.I64, 2)}, Scale: 16, Off: 4})
	outer := b.Append(&ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr,
		Args: []ir.Value{inner, ir.ConstInt(ir.I64, 3)}, Scale: 8, Off: 1})
	d := decompose(outer)
	if d.base != ir.Value(p) {
		t.Errorf("base: %v", d.base)
	}
	if d.constOff != 2*16+4+3*8+1 {
		t.Errorf("constOff: %d", d.constOff)
	}
	if d.hasVarIdx {
		t.Error("no variable index expected")
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestManagerAliasAllocs pins the allocation cost of the audit-off
// query path: the audit log's chain record must cost nothing when no
// audit session is attached, and unseq-aa's pair normalization orders
// the two pointers without building keys.
func TestManagerAliasAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations inside unseq-aa")
	}
	fn, a, bAl, _, gep0, _, gepVar, _ := buildFn()
	m := NewManager(fn, true)
	base := NewManager(fn, false)
	for _, c := range []struct {
		name   string
		m      *Manager
		a, b   Location
		want   Result
		allocs float64
	}{
		{"basic-noalias", m, loc(a, 8, ir.I64), loc(bAl, 8, ir.I64), NoAlias, 0},
		{"unseq-noalias", m, loc(gep0, 8, ir.F64), loc(gepVar, 8, ir.F64), NoAlias, 0},
		{"unseq-off-mayalias", base, loc(gep0, 8, ir.F64), loc(gepVar, 8, ir.F64), MayAlias, 0},
	} {
		if r := c.m.Alias(c.a, c.b); r != c.want {
			t.Fatalf("%s: %v, want %v", c.name, r, c.want)
		}
		got := testing.AllocsPerRun(100, func() { c.m.Alias(c.a, c.b) })
		if got != c.allocs {
			t.Errorf("%s: %v allocs/op, want %v", c.name, got, c.allocs)
		}
	}
}
