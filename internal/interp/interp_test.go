package interp

import (
	"testing"

	"repro/internal/ir"
)

// buildModule assembles a module with one function computing
// f(x) = x*3 + g, where g is a global initialized to 5.
func buildModule() *ir.Module {
	m := &ir.Module{Name: "t"}
	g := &ir.Global{Name: "g", Size: 8, ElemClass: ir.I64,
		Init: map[int]ir.InitVal{0: {Cls: ir.I64, I: 5}}}
	m.Globals = append(m.Globals, g)

	f := &ir.Func{Name: "f", Ret: ir.I64}
	p := &ir.Param{Name: "x", Cls: ir.I64, Idx: 0}
	f.Params = []*ir.Param{p}
	b := f.NewBlock("entry")
	mul := b.Append(&ir.Instr{Op: ir.OpMul, Cls: ir.I64,
		Args: []ir.Value{p, ir.ConstInt(ir.I64, 3)}})
	ld := b.Append(&ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{g}})
	sum := b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{mul, ld}})
	b.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{sum}})
	m.Funcs = append(m.Funcs, f)
	return m
}

func TestBasicExecution(t *testing.T) {
	m := New(buildModule(), DefaultCosts())
	got, err := m.RunArgs("f", 7)
	if err != nil {
		t.Fatal(err)
	}
	if got != 26 {
		t.Errorf("f(7) = %d want 26", got)
	}
	if m.MilliCycles() <= 0 {
		t.Error("no cycles accounted")
	}
}

func TestGlobalInitAndAccessors(t *testing.T) {
	m := New(buildModule(), DefaultCosts())
	addr, ok := m.GlobalAddr("g")
	if !ok {
		t.Fatal("global g missing")
	}
	if m.ReadI64(addr) != 5 {
		t.Errorf("g init: %d", m.ReadI64(addr))
	}
	m.WriteI64(addr, 11)
	got, _ := m.RunArgs("f", 1)
	if got != 14 {
		t.Errorf("f(1) with g=11: %d", got)
	}
}

func TestRegisterVsMemoryCost(t *testing.T) {
	// Loading through a scalar alloca must be cheaper than through a
	// computed pointer.
	build := func(throughAlloca bool) *ir.Module {
		m := &ir.Module{}
		g := &ir.Global{Name: "mem", Size: 8, ElemClass: ir.I64, Init: map[int]ir.InitVal{}}
		m.Globals = append(m.Globals, g)
		f := &ir.Func{Name: "main", Ret: ir.I64}
		b := f.NewBlock("entry")
		var ptr ir.Value
		if throughAlloca {
			ptr = b.Append(&ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, Name: "slot", AllocSz: 8})
			b.Append(&ir.Instr{Op: ir.OpStore, Cls: ir.Void,
				Args: []ir.Value{ptr, ir.ConstInt(ir.I64, 1)}})
		} else {
			ptr = g
			b.Append(&ir.Instr{Op: ir.OpStore, Cls: ir.Void,
				Args: []ir.Value{g, ir.ConstInt(ir.I64, 1)}})
		}
		var last ir.Value = ir.ConstInt(ir.I64, 0)
		for i := 0; i < 10; i++ {
			ld := b.Append(&ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{ptr}})
			last = ld
		}
		b.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{last}})
		m.Funcs = append(m.Funcs, f)
		return m
	}
	mr := New(build(true), DefaultCosts())
	if _, err := mr.RunArgs("main"); err != nil {
		t.Fatal(err)
	}
	mm := New(build(false), DefaultCosts())
	if _, err := mm.RunArgs("main"); err != nil {
		t.Fatal(err)
	}
	if mr.MilliCycles() >= mm.MilliCycles() {
		t.Errorf("register-slot loads should be cheaper: alloca=%v global=%v",
			mr.TotalCycles(), mm.TotalCycles())
	}
}

func TestVectorOps(t *testing.T) {
	// Write [10,20,30,40] via vsplat/viota math and reduce.
	m := &ir.Module{}
	g := &ir.Global{Name: "arr", Size: 32, ElemClass: ir.I64, Init: map[int]ir.InitVal{}}
	m.Globals = append(m.Globals, g)
	f := &ir.Func{Name: "main", Ret: ir.I64}
	b := f.NewBlock("entry")
	ten := b.Append(&ir.Instr{Op: ir.OpVecSplat, Cls: ir.I64, Width: 4,
		Args: []ir.Value{ir.ConstInt(ir.I64, 10)}})
	iota := b.Append(&ir.Instr{Op: ir.OpVecIota, Cls: ir.I64, Width: 4})
	one := b.Append(&ir.Instr{Op: ir.OpVecSplat, Cls: ir.I64, Width: 4,
		Args: []ir.Value{ir.ConstInt(ir.I64, 1)}})
	iotaPlus1 := b.Append(&ir.Instr{Op: ir.OpVecBin, Cls: ir.I64, Width: 4, VecOp: ir.OpAdd,
		Args: []ir.Value{iota, one}})
	vals := b.Append(&ir.Instr{Op: ir.OpVecBin, Cls: ir.I64, Width: 4, VecOp: ir.OpMul,
		Args: []ir.Value{ten, iotaPlus1}})
	b.Append(&ir.Instr{Op: ir.OpVecStore, Cls: ir.I64, Width: 4, Args: []ir.Value{g, vals}})
	back := b.Append(&ir.Instr{Op: ir.OpVecLoad, Cls: ir.I64, Width: 4, Args: []ir.Value{g}})
	red := b.Append(&ir.Instr{Op: ir.OpVecReduce, Cls: ir.I64, Width: 4, VecOp: ir.OpAdd,
		Args: []ir.Value{back}})
	b.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{red}})
	m.Funcs = append(m.Funcs, f)

	mach := New(m, DefaultCosts())
	got, err := mach.RunArgs("main")
	if err != nil {
		t.Fatal(err)
	}
	if got != 100 {
		t.Errorf("reduce = %d want 100", got)
	}
	addr, _ := mach.GlobalAddr("arr")
	if mach.ReadI64(addr+8) != 20 {
		t.Errorf("lane 1 = %d want 20", mach.ReadI64(addr+8))
	}
}

func TestVecSelectAndCmp(t *testing.T) {
	m := &ir.Module{}
	f := &ir.Func{Name: "main", Ret: ir.I64}
	b := f.NewBlock("entry")
	iota := b.Append(&ir.Instr{Op: ir.OpVecIota, Cls: ir.I64, Width: 4})
	two := b.Append(&ir.Instr{Op: ir.OpVecSplat, Cls: ir.I64, Width: 4,
		Args: []ir.Value{ir.ConstInt(ir.I64, 2)}})
	mask := b.Append(&ir.Instr{Op: ir.OpVecBin, Cls: ir.I32, Width: 4, VecOp: ir.OpCmp,
		Pred: ir.Lt, Args: []ir.Value{iota, two}})
	hundred := b.Append(&ir.Instr{Op: ir.OpVecSplat, Cls: ir.I64, Width: 4,
		Args: []ir.Value{ir.ConstInt(ir.I64, 100)}})
	sel := b.Append(&ir.Instr{Op: ir.OpVecSelect, Cls: ir.I64, Width: 4,
		Args: []ir.Value{mask, hundred, iota}})
	red := b.Append(&ir.Instr{Op: ir.OpVecReduce, Cls: ir.I64, Width: 4, VecOp: ir.OpAdd,
		Args: []ir.Value{sel}})
	b.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{red}})
	m.Funcs = append(m.Funcs, f)
	got, err := New(m, DefaultCosts()).RunArgs("main")
	if err != nil {
		t.Fatal(err)
	}
	// lanes: [100, 100, 2, 3] -> 205
	if got != 205 {
		t.Errorf("vselect = %d want 205", got)
	}
}

func TestUBCheckRecording(t *testing.T) {
	m := &ir.Module{}
	g1 := &ir.Global{Name: "a", Size: 8, ElemClass: ir.I64, Init: map[int]ir.InitVal{}}
	m.Globals = append(m.Globals, g1)
	f := &ir.Func{Name: "main", Ret: ir.I64}
	b := f.NewBlock("entry")
	b.Append(&ir.Instr{Op: ir.OpUBCheck, Cls: ir.Void, Args: []ir.Value{g1, g1}})
	b.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{ir.ConstInt(ir.I64, 0)}})
	m.Funcs = append(m.Funcs, f)
	mach := New(m, DefaultCosts())
	if _, err := mach.RunArgs("main"); err != nil {
		t.Fatal(err)
	}
	if len(mach.SanFailures) != 1 {
		t.Errorf("ubcheck on equal pointers must record a failure")
	}
}

func TestMustNotAliasIsFree(t *testing.T) {
	m := &ir.Module{}
	g1 := &ir.Global{Name: "a", Size: 8, ElemClass: ir.I64, Init: map[int]ir.InitVal{}}
	m.Globals = append(m.Globals, g1)
	build := func(withFacts bool) *ir.Module {
		mm := &ir.Module{Globals: []*ir.Global{g1}}
		f := &ir.Func{Name: "main", Ret: ir.I64}
		b := f.NewBlock("entry")
		if withFacts {
			for i := 0; i < 20; i++ {
				b.Append(&ir.Instr{Op: ir.OpMustNotAlias, Cls: ir.Void, Args: []ir.Value{g1, g1}})
			}
		}
		b.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{ir.ConstInt(ir.I64, 0)}})
		mm.Funcs = append(mm.Funcs, f)
		return mm
	}
	m1 := New(build(false), DefaultCosts())
	m2 := New(build(true), DefaultCosts())
	if _, err := m1.RunArgs("main"); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.RunArgs("main"); err != nil {
		t.Fatal(err)
	}
	if m1.MilliCycles() != m2.MilliCycles() || m1.Executed != m2.Executed {
		t.Errorf("metadata intrinsics must cost nothing: %v/%v vs %v/%v",
			m1.TotalCycles(), m1.Executed, m2.TotalCycles(), m2.Executed)
	}
}

func TestICachePenalty(t *testing.T) {
	build := func(n int) *ir.Module {
		m := &ir.Module{}
		f := &ir.Func{Name: "main", Ret: ir.I64}
		b := f.NewBlock("entry")
		var last ir.Value = ir.ConstInt(ir.I64, 1)
		for i := 0; i < n; i++ {
			last = b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64,
				Args: []ir.Value{last, ir.ConstInt(ir.I64, 1)}})
		}
		b.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{last}})
		m.Funcs = append(m.Funcs, f)
		return m
	}
	costs := DefaultCosts()
	small := New(build(100), costs)
	big := New(build(300), costs)
	if _, err := small.RunArgs("main"); err != nil {
		t.Fatal(err)
	}
	if _, err := big.RunArgs("main"); err != nil {
		t.Fatal(err)
	}
	perInstrSmall := (small.TotalCycles() - costs.CallBase) / float64(small.Executed)
	perInstrBig := (big.TotalCycles() - costs.CallBase) / float64(big.Executed)
	if perInstrBig <= perInstrSmall {
		t.Errorf("functions over the icache threshold must pay per-instruction: small=%.3f big=%.3f",
			perInstrSmall, perInstrBig)
	}
}

func TestBuiltins(t *testing.T) {
	cases := []struct {
		name string
		args []Val
		want float64
	}{
		{"fabs", []Val{FV(-3.5)}, 3.5},
		{"sqrt", []Val{FV(16)}, 4},
		{"fmax", []Val{FV(2), FV(9)}, 9},
		{"fmin", []Val{FV(2), FV(9)}, 2},
		{"pow", []Val{FV(2), FV(10)}, 1024},
		{"floor", []Val{FV(2.9)}, 2},
		{"ceil", []Val{FV(2.1)}, 3},
	}
	for _, c := range cases {
		v, ok, err := CallBuiltin(c.name, c.args)
		if !ok || err != nil {
			t.Fatalf("%s: ok=%v err=%v", c.name, ok, err)
		}
		if v.AsFloat() != c.want {
			t.Errorf("%s = %v want %v", c.name, v.AsFloat(), c.want)
		}
	}
	if _, ok, _ := CallBuiltin("nonexistent", nil); ok {
		t.Error("unknown builtin must not dispatch")
	}
}

func TestUnsignedArithmetic(t *testing.T) {
	// i8 unsigned: 250 + 10 wraps to 4 under unsigned truncation.
	v, _ := ScalarBin(ir.OpAdd, ir.I8, IV(250), IV(10), true)
	if v.AsInt() != 4 {
		t.Errorf("u8 250+10 = %d want 4", v.AsInt())
	}
	// signed i8: stays in signed range.
	v2, _ := ScalarBin(ir.OpAdd, ir.I8, IV(120), IV(10), false)
	if v2.AsInt() != -126 {
		t.Errorf("i8 120+10 = %d want -126", v2.AsInt())
	}
	// unsigned shift right.
	v3, _ := ScalarBin(ir.OpShr, ir.I32, IV(-1), IV(24), true)
	if v3.AsInt() != 255 {
		t.Errorf("u32 -1>>24 = %d want 255", v3.AsInt())
	}
	// unsigned compare.
	if !CompareVals(ir.Lt, IV(1), IV(-1), true) {
		t.Error("unsigned 1 < 0xffffffffffffffff")
	}
	if CompareVals(ir.Lt, IV(1), IV(-1), false) {
		t.Error("signed 1 < -1 must be false")
	}
}

func TestMemset(t *testing.T) {
	m := &ir.Module{}
	g := &ir.Global{Name: "buf", Size: 32, ElemClass: ir.I64, Init: map[int]ir.InitVal{
		0: {Cls: ir.I64, I: 7}, 8: {Cls: ir.I64, I: 7}, 16: {Cls: ir.I64, I: 7}, 24: {Cls: ir.I64, I: 7},
	}}
	m.Globals = append(m.Globals, g)
	f := &ir.Func{Name: "main", Ret: ir.I64}
	b := f.NewBlock("entry")
	b.Append(&ir.Instr{Op: ir.OpMemset, Cls: ir.Void, Scale: 8,
		Args: []ir.Value{g, ir.ConstInt(ir.I64, 0), ir.ConstInt(ir.I64, 24)}})
	ld := b.Append(&ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{g}})
	g3 := b.Append(&ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr,
		Args: []ir.Value{g, ir.ConstInt(ir.I64, 3)}, Scale: 8})
	ld3 := b.Append(&ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{g3}})
	sum := b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{ld, ld3}})
	b.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{sum}})
	m.Funcs = append(m.Funcs, f)
	got, err := New(m, DefaultCosts()).RunArgs("main")
	if err != nil {
		t.Fatal(err)
	}
	// First three cells zeroed; the fourth keeps 7.
	if got != 7 {
		t.Errorf("memset extent wrong: %d", got)
	}
}

func TestIndirectCallByPseudoAddr(t *testing.T) {
	m := &ir.Module{}
	callee := &ir.Func{Name: "cal", Ret: ir.I64}
	cb := callee.NewBlock("entry")
	cb.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{ir.ConstInt(ir.I64, 42)}})
	f := &ir.Func{Name: "main", Ret: ir.I64}
	b := f.NewBlock("entry")
	fr := &ir.FuncRef{Name: "cal"}
	call := b.Append(&ir.Instr{Op: ir.OpCall, Cls: ir.I64, Args: []ir.Value{fr}})
	b.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{call}})
	m.Funcs = append(m.Funcs, callee, f)
	got, err := New(m, DefaultCosts()).RunArgs("main")
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("indirect call: %d", got)
	}
}

func TestStepBudget(t *testing.T) {
	m := &ir.Module{}
	f := &ir.Func{Name: "main", Ret: ir.I64}
	b := f.NewBlock("entry")
	b.Append(&ir.Instr{Op: ir.OpBr, Cls: ir.Void, Target: b}) // infinite loop
	m.Funcs = append(m.Funcs, f)
	mach := New(m, DefaultCosts())
	mach.MaxSteps = 1000
	if _, err := mach.RunArgs("main"); err == nil {
		t.Error("infinite loop must hit the step budget")
	}
}
