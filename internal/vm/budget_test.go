package vm_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/vm"
	"repro/internal/workload"
)

// engine is the slice of either machine the sweep observes.
type engine interface {
	Run(name string, args ...interp.Val) (interp.Val, error)
	MilliCycles() int64
	EnableProfile()
	ProfileSamples() []profile.Sample
	SanitizerFailures() []*interp.SanitizerFailure
}

// outcome is everything one budgeted run observably leaves behind.
type outcome struct {
	result    string
	err       string
	executed  int64
	milli     int64
	profMilli int64
	failures  string
}

func runBudgeted(mod *ir.Module, prog *vm.Program, costs interp.CostModel, tree bool, budget int64, prof bool) outcome {
	var (
		m        engine
		executed func() int64
	)
	if tree {
		mi := interp.New(mod, costs)
		mi.MaxSteps = budget
		m, executed = mi, func() int64 { return mi.Executed }
	} else {
		mv := vm.New(prog, costs)
		defer mv.Release()
		mv.MaxSteps = budget
		m, executed = mv, func() int64 { return mv.Executed }
	}
	if prof {
		m.EnableProfile()
	}
	v, err := m.Run("main")
	o := outcome{result: fmt.Sprintf("%d/%g/%t", v.I, v.F, v.Fl), executed: executed(), milli: m.MilliCycles()}
	if err != nil {
		o.err = strings.TrimPrefix(strings.TrimPrefix(err.Error(), "interp: "), "vm: ")
	}
	for _, s := range m.ProfileSamples() {
		o.profMilli += int64(math.Round(s.Cycles * 1000))
	}
	for _, f := range m.SanitizerFailures() {
		o.failures += fmt.Sprintf("%s:%d:%d ", f.Fn, f.Addr, f.Meta)
	}
	return o
}

// budgetModule is a hand-built program whose segments hold every shape
// the budget can trip inside: a memset, a call in the middle of a block,
// register-class slot traffic, a run of ubchecks (one of which fails),
// every fused chain the vm forms, with the produced value at each
// operand position a two-operand half can take it, every pc a slot load
// folds into and every pc a fall-through br trails. TestStepBudget
// checks that the vm really forms each one.
func budgetModule() *ir.Module {
	m := &ir.Module{Name: "budget"}
	arr := &ir.Global{Name: "arr", Size: 128, ElemClass: ir.I64}
	m.Globals = append(m.Globals, arr)

	helper := &ir.Func{Name: "helper", Ret: ir.I64}
	x := &ir.Param{Name: "x", Cls: ir.I64, Idx: 0}
	helper.Params = []*ir.Param{x}
	hb := helper.NewBlock("entry")
	dbl := hb.Append(&ir.Instr{Op: ir.OpMul, Cls: ir.I64, Args: []ir.Value{x, ir.ConstInt(ir.I64, 2)}})
	// A slot load folded into the ret. The product of a parameter may
	// carry a float tag, so the slot store converts it as the load would.
	hs := hb.Append(&ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, AllocSz: 8})
	hb.Append(&ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{hs, dbl}})
	hv := hb.Append(&ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{hs}})
	hb.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{hv}})

	f := &ir.Func{Name: "main", Ret: ir.I64}
	entry, loop := f.NewBlock("entry"), f.NewBlock("loop")
	// fall1, fall2, fall3 and back follow loop in layout, each entered by
	// the br that closes the block before it.
	fall1, fall2, fall3, back := f.NewBlock("fall1"), f.NewBlock("fall2"), f.NewBlock("fall3"), f.NewBlock("back")
	exit := f.NewBlock("exit")
	add := func(b *ir.Block, in *ir.Instr) *ir.Instr { return b.Append(in) }
	i64 := func(v int64) ir.Value { return ir.ConstInt(ir.I64, v) }
	f64 := func(v float64) ir.Value { return ir.ConstFloat(ir.F64, v) }
	slot := add(entry, &ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, AllocSz: 8})
	fslot := add(entry, &ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, AllocSz: 8})
	tmp := add(entry, &ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, AllocSz: 8})
	add(entry, &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{slot, i64(0)}})
	add(entry, &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{fslot, f64(1.5)}})
	pslot := add(entry, &ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, AllocSz: 8})
	add(entry, &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{pslot, arr}})
	// Slots whose loads copy them, for the folds: a pointer, 64-bit
	// integers and a 32-bit one.
	kp := add(entry, &ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, AllocSz: 8})
	k64 := add(entry, &ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, AllocSz: 8})
	k4 := add(entry, &ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, AllocSz: 8})
	ks32 := add(entry, &ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, AllocSz: 4})
	ksum := add(entry, &ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, AllocSz: 8})
	add(entry, &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{kp, arr}})
	add(entry, &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{k64, i64(3)}})
	add(entry, &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{k4, i64(4)}})
	add(entry, &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{ks32, ir.ConstInt(ir.I32, 2)}})
	add(entry, &ir.Instr{Op: ir.OpMemset, Cls: ir.Void, Scale: 8,
		Args: []ir.Value{arr, i64(3), i64(128)}})
	add(entry, &ir.Instr{Op: ir.OpBr, Cls: ir.Void, Target: loop})

	// gep_load, a call, gep_store.
	i := add(loop, &ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{slot}})
	p := add(loop, &ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr, Scale: 8, Args: []ir.Value{arr, i}})
	v := add(loop, &ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{p}})
	c := add(loop, &ir.Instr{Op: ir.OpCall, Cls: ir.I64, Callee: "helper", Args: []ir.Value{v}})
	q := add(loop, &ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr, Scale: 8, Off: 8, Args: []ir.Value{arr, i}})
	add(loop, &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{q, c}})
	// load_conv_gep: the O0 index read from a slot.
	li := add(loop, &ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{slot}})
	ci := add(loop, &ir.Instr{Op: ir.OpConvert, Cls: ir.I32, Args: []ir.Value{li}})
	g := add(loop, &ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr, Scale: 8, Args: []ir.Value{arr, ci}})
	gv := add(loop, &ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{g}})
	// A convert starts no chain: convert, then gep_load.
	t := add(loop, &ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{i, i64(1)}})
	ct := add(loop, &ir.Instr{Op: ir.OpConvert, Cls: ir.I32, Args: []ir.Value{t}})
	g2 := add(loop, &ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr, Scale: 8, Args: []ir.Value{arr, ct}})
	w := add(loop, &ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{g2}})
	// convert, then gep_store.
	ci2 := add(loop, &ir.Instr{Op: ir.OpConvert, Cls: ir.I32, Args: []ir.Value{i}})
	g3 := add(loop, &ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr, Scale: 8, Off: 16, Args: []ir.Value{arr, ci2}})
	add(loop, &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{g3, w}})
	// load_conv_gep with the converted value as the base; the gep has
	// two uses, so the chain stops there.
	lb := add(loop, &ir.Instr{Op: ir.OpLoad, Cls: ir.Ptr, Args: []ir.Value{pslot}})
	cb := add(loop, &ir.Instr{Op: ir.OpConvert, Cls: ir.I64, Args: []ir.Value{lb}})
	g4 := add(loop, &ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr, Scale: 8, Args: []ir.Value{cb, i}})
	x4 := add(loop, &ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{g4}})
	add(loop, &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{g4, gv}})
	// A load_conv prefix that no gep extends splits again: load,
	// convert, then iadd_store of the sum.
	lf := add(loop, &ir.Instr{Op: ir.OpLoad, Cls: ir.F64, Args: []ir.Value{fslot}})
	cf := add(loop, &ir.Instr{Op: ir.OpConvert, Cls: ir.I64, Args: []ir.Value{lf}})
	sum := add(loop, &ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{cf, x4}})
	add(loop, &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{tmp, sum}})
	// fmul_fadd with the product as the first, then the second addend.
	lf2 := add(loop, &ir.Instr{Op: ir.OpLoad, Cls: ir.F64, Args: []ir.Value{fslot}})
	m1 := add(loop, &ir.Instr{Op: ir.OpMul, Cls: ir.F64, Args: []ir.Value{lf2, f64(2)}})
	a1 := add(loop, &ir.Instr{Op: ir.OpAdd, Cls: ir.F64, Args: []ir.Value{m1, f64(0.5)}})
	m2 := add(loop, &ir.Instr{Op: ir.OpMul, Cls: ir.F64, Args: []ir.Value{a1, f64(0.25)}})
	a2 := add(loop, &ir.Instr{Op: ir.OpAdd, Cls: ir.F64, Args: []ir.Value{f64(1), m2}})
	add(loop, &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{fslot, a2}})
	// select_conv.
	sc := add(loop, &ir.Instr{Op: ir.OpCmp, Cls: ir.I32, Pred: ir.Lt, Args: []ir.Value{i, i64(2)}})
	se := add(loop, &ir.Instr{Op: ir.OpSelect, Cls: ir.F64, Args: []ir.Value{sc, a2, f64(7.5)}})
	cv := add(loop, &ir.Instr{Op: ir.OpConvert, Cls: ir.I64, Args: []ir.Value{se}})
	// A load_cmp prefix with the loaded value second, not feeding a
	// branch, splits again.
	lc := add(loop, &ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{tmp}})
	lcm := add(loop, &ir.Instr{Op: ir.OpCmp, Cls: ir.I32, Pred: ir.Le, Args: []ir.Value{cv, lc}})
	z := add(loop, &ir.Instr{Op: ir.OpConvert, Cls: ir.I64, Args: []ir.Value{lcm}})
	add(loop, &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{tmp, z}})
	// gep_vec_load and gep_vec_store.
	vp := add(loop, &ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr, Scale: 8, Args: []ir.Value{arr, i}})
	vl := add(loop, &ir.Instr{Op: ir.OpVecLoad, Cls: ir.I64, Width: 2, Args: []ir.Value{vp}})
	vq := add(loop, &ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr, Scale: 8, Off: 48, Args: []ir.Value{arr, i}})
	add(loop, &ir.Instr{Op: ir.OpVecStore, Cls: ir.I64, Width: 2, Args: []ir.Value{vq, vl}})
	// Slot loads folded into the pc after them, one step pcs first:
	// fold_load, a pointer read from a slot and loaded through.
	ld := func(b *ir.Block, slot ir.Value, cls ir.Class) *ir.Instr {
		return add(b, &ir.Instr{Op: ir.OpLoad, Cls: cls, Args: []ir.Value{slot}})
	}
	lv := add(loop, &ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{ld(loop, kp, ir.Ptr)}})
	// fold_gep: a gep with two readers stays on its own.
	ga := add(loop, &ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr, Scale: 8, Args: []ir.Value{ld(loop, kp, ir.Ptr), i}})
	gl := add(loop, &ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{ga}})
	add(loop, &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{ga, gl}})
	// fold_iadd, fold2_iadd (both operands), fold_isub, fold_imul,
	// fold_ibits, fold_divrem, fold_cmp and fold_store.
	s1 := add(loop, &ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{ld(loop, k64, ir.I64), lv}})
	x2 := ld(loop, k64, ir.I64)
	s2 := add(loop, &ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{x2, ld(loop, k64, ir.I64)}})
	d1 := add(loop, &ir.Instr{Op: ir.OpSub, Cls: ir.I64, Args: []ir.Value{ld(loop, k64, ir.I64), s2}})
	p1 := add(loop, &ir.Instr{Op: ir.OpMul, Cls: ir.I64, Args: []ir.Value{d1, ld(loop, k64, ir.I64)}})
	b1 := add(loop, &ir.Instr{Op: ir.OpAnd, Cls: ir.I64, Args: []ir.Value{ld(loop, k64, ir.I64), p1}})
	q1 := add(loop, &ir.Instr{Op: ir.OpDiv, Cls: ir.I64, Args: []ir.Value{b1, ld(loop, k64, ir.I64)}})
	c1 := add(loop, &ir.Instr{Op: ir.OpCmp, Cls: ir.I32, Pred: ir.Lt, Args: []ir.Value{ld(loop, k64, ir.I64), q1}})
	add(loop, &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{arr, ld(loop, k64, ir.I64)}})
	// Ahead of two-, three- and four-step chains: fold_iadd_store,
	// fold_gep_load, fold_load_conv_gep, fold_load_conv_gep_load and
	// fold_load_conv_gep_store; then a plain load_conv_gep_store.
	t1 := add(loop, &ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{ld(loop, k64, ir.I64), c1}})
	add(loop, &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{ksum, t1}})
	e1 := add(loop, &ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr, Scale: 8, Args: []ir.Value{ld(loop, kp, ir.Ptr), i}})
	ev := add(loop, &ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{e1}})
	idx := func(b *ir.Block, base ir.Value) *ir.Instr {
		cx := add(b, &ir.Instr{Op: ir.OpConvert, Cls: ir.I64, Args: []ir.Value{ld(b, ks32, ir.I32)}})
		return add(b, &ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr, Scale: 8, Args: []ir.Value{base, cx}})
	}
	g5 := idx(loop, ld(loop, kp, ir.Ptr))
	add(loop, &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{g5, add(loop, &ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{g5}})}})
	v6 := add(loop, &ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{idx(loop, ld(loop, kp, ir.Ptr))}})
	add(loop, &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{idx(loop, ld(loop, kp, ir.Ptr)), ev}})
	add(loop, &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{idx(loop, arr), v6}})
	// Fall-through brs, each closing a block: store_fall (to memory, so
	// a trip at the br must have run the store), fold_store_fall,
	// load_conv_gep_store_fall and fold_load_conv_gep_store_fall.
	add(loop, &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{arr, q1}})
	add(loop, &ir.Instr{Op: ir.OpBr, Cls: ir.Void, Target: fall1})
	add(fall1, &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{arr, ld(fall1, k64, ir.I64)}})
	add(fall1, &ir.Instr{Op: ir.OpBr, Cls: ir.Void, Target: fall2})
	add(fall2, &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{idx(fall2, arr), s1}})
	add(fall2, &ir.Instr{Op: ir.OpBr, Cls: ir.Void, Target: fall3})
	add(fall3, &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{idx(fall3, ld(fall3, kp, ir.Ptr)), lv}})
	add(fall3, &ir.Instr{Op: ir.OpBr, Cls: ir.Void, Target: back})
	// A run of three ubchecks; the second fails.
	add(back, &ir.Instr{Op: ir.OpUBCheck, Cls: ir.Void, Args: []ir.Value{arr, fslot}, Meta: 1})
	add(back, &ir.Instr{Op: ir.OpUBCheck, Cls: ir.Void, Args: []ir.Value{tmp, tmp}, Meta: 2})
	add(back, &ir.Instr{Op: ir.OpUBCheck, Cls: ir.Void, Args: []ir.Value{slot, tmp}, Meta: 3})
	// The back edge: iadd_store, then fold_load_cmp_br with the loaded
	// value first.
	i1 := add(back, &ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{i, i64(1)}})
	add(back, &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{slot, i1}})
	lim := ld(back, k4, ir.I64)
	ln := add(back, &ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{slot}})
	lt := add(back, &ir.Instr{Op: ir.OpCmp, Cls: ir.I32, Pred: ir.Lt, Args: []ir.Value{ln, lim}})
	add(back, &ir.Instr{Op: ir.OpCondBr, Cls: ir.Void, Args: []ir.Value{lt}, Then: loop, Else: exit})

	// gep_load and cmp_br.
	last := add(exit, &ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr, Scale: 8, Args: []ir.Value{arr, i64(4)}})
	r := add(exit, &ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{last}})
	odd := add(exit, &ir.Instr{Op: ir.OpCmp, Cls: ir.I32, Pred: ir.Ne, Args: []ir.Value{r, i64(0)}})
	yes, no := f.NewBlock("yes"), f.NewBlock("no")
	add(exit, &ir.Instr{Op: ir.OpCondBr, Cls: ir.Void, Args: []ir.Value{odd}, Then: yes, Else: no})
	fv := add(yes, &ir.Instr{Op: ir.OpLoad, Cls: ir.F64, Args: []ir.Value{fslot}})
	fr := add(yes, &ir.Instr{Op: ir.OpConvert, Cls: ir.I64, Args: []ir.Value{fv}})
	sr := add(yes, &ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{fr, r}})
	tv := add(yes, &ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{tmp}})
	rr := add(yes, &ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{sr, tv}})
	// load_cmp_br with the loaded value second.
	done := f.NewBlock("done")
	ly := add(yes, &ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{tmp}})
	ge := add(yes, &ir.Instr{Op: ir.OpCmp, Cls: ir.I32, Pred: ir.Le, Args: []ir.Value{i64(0), ly}})
	add(yes, &ir.Instr{Op: ir.OpCondBr, Cls: ir.Void, Args: []ir.Value{ge}, Then: done, Else: no})
	add(done, &ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{rr}})
	add(no, &ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{r}})
	m.Funcs = append(m.Funcs, helper, f)
	return m
}

// fellThroughModule reaches a block without a terminator: the trap
// takes no step, so the last budgets of the sweep see the fall-through
// error rather than the budget one.
func fellThroughModule() *ir.Module {
	m := &ir.Module{Name: "fell"}
	f := &ir.Func{Name: "main", Ret: ir.I64}
	b := f.NewBlock("entry")
	s := b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{ir.ConstInt(ir.I64, 1), ir.ConstInt(ir.I64, 2)}})
	b.Append(&ir.Instr{Op: ir.OpMul, Cls: ir.I64, Args: []ir.Value{s, s}})
	m.Funcs = append(m.Funcs, f)
	return m
}

// TestStepBudget runs every MaxSteps from 0 to the program's full
// step count + 2, with profiling off and on, on both engines. Wherever
// the budget trips — between segments, inside one, between the halves
// of a fused chain, inside a run of ubchecks, inside a callee — the
// engines must agree on the error, the retired count, the exact
// milli-cycle total, the profile's attributed total and the sanitizer
// failures, and the profile must reconcile to the total minus the
// top-level CallBase. Each case also pins the code shapes it is there
// to cover.
func TestStepBudget(t *testing.T) {
	compile := func(cfg driver.Config) *ir.Module {
		p := workload.IntroMinmax(8)
		cfg.Files = workload.Files()
		c, err := driver.Compile(p.Name, p.Source, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c.Module
	}
	// The hand-built program runs with a small icache threshold so its
	// main pays the per-step penalty, which a fused chain that trips
	// inside must pay for each half that fits.
	icache := interp.DefaultCosts()
	icache.ICacheThreshold = 8
	// covers lists what the compiled code must contain: fused op names,
	// "3-step" for some three-instruction chain, "ubcheck-run" for two
	// checks back to back in one segment.
	var allFused []string
	for name, steps := range vm.OpSteps() {
		if steps > 1 {
			allFused = append(allFused, name)
		}
	}
	cases := []struct {
		name   string
		mod    *ir.Module
		costs  interp.CostModel
		covers []string
	}{
		{"minmax-O0", compile(driver.Config{NoOpt: true}), interp.DefaultCosts(), []string{"3-step"}},
		{"minmax-sanitize-O0", compile(driver.Config{OOElala: true, Sanitize: true}), interp.DefaultCosts(),
			[]string{"3-step", "ubcheck-run"}},
		{"minmax-unseq-O3", compile(driver.Config{OOElala: true}), interp.DefaultCosts(), nil},
		{"hand-built", budgetModule(), icache, append(allFused, "3-step", "ubcheck-run")},
		{"fell-through", fellThroughModule(), interp.DefaultCosts(), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := vm.Compile(tc.mod)
			shapes := vm.CodeShapes(prog)
			for _, want := range tc.covers {
				if shapes[want] == 0 {
					t.Errorf("compiled code has no %s pc (shapes %v)", want, shapes)
				}
			}
			full := interp.New(tc.mod, tc.costs)
			full.Run("main")
			total := full.Executed
			callBase := tc.costs.Milli().CallBase
			trips := 0
			for budget := int64(0); budget <= total+2; budget++ {
				for _, prof := range []bool{false, true} {
					ti := runBudgeted(tc.mod, prog, tc.costs, true, budget, prof)
					tv := runBudgeted(tc.mod, prog, tc.costs, false, budget, prof)
					if ti != tv {
						t.Fatalf("MaxSteps %d profile %v: tree %+v, vm %+v", budget, prof, ti, tv)
					}
					if prof && tv.profMilli != tv.milli-callBase {
						t.Fatalf("MaxSteps %d: profile attributes %d milli-cycles, want %d-%d",
							budget, tv.profMilli, tv.milli, callBase)
					}
					if strings.Contains(tv.err, "step budget") {
						trips++
					}
				}
			}
			if want := 2 * int(total); trips != want {
				t.Errorf("budget tripped %d times over the sweep, want %d (every budget below %d, both profile modes)",
					trips, want, total)
			}
		})
	}
}

// faultModule builds a main whose entry block is one segment around a
// faulting instruction: a load and an add before it, and an add, a
// store and the return after it, which the fault keeps from retiring.
// fault appends the instruction, reading the add's result, to b, and may
// add functions to m; it returns nil for a block that falls through,
// which then ends where fault left it.
func faultModule(fault func(m *ir.Module, b *ir.Block, x ir.Value) ir.Value) *ir.Module {
	m := &ir.Module{Name: "fault"}
	g := &ir.Global{Name: "g", Size: 8, ElemClass: ir.I64,
		Init: map[int]ir.InitVal{0: {Cls: ir.I64, I: 6}}}
	m.Globals = append(m.Globals, g)
	f := &ir.Func{Name: "main", Ret: ir.I64}
	b := f.NewBlock("entry")
	x := b.Append(&ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{g}})
	y := b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{x, ir.ConstInt(ir.I64, 1)}})
	if r := fault(m, b, y); r != nil {
		s := b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{r, y}})
		b.Append(&ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{g, s}})
		b.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{s}})
	}
	m.Funcs = append(m.Funcs, f)
	return m
}

// TestHandlerErrorCharges runs programs whose handlers fail in the
// middle of a segment, after other instructions of it, on both engines,
// profiling off (the segment was charged whole on entry) and on (one pc
// per segment). A failing instruction retires, and nothing after it
// does, so the engines must agree on the error, the retired count, the
// exact milli-cycles and the profile's attributed total. The icache
// penalty is on, so un-charging covers it too.
func TestHandlerErrorCharges(t *testing.T) {
	i64 := func(v int64) ir.Value { return ir.ConstInt(ir.I64, v) }
	bin := func(op ir.Op, cls ir.Class, a, b ir.Value) *ir.Instr {
		return &ir.Instr{Op: op, Cls: cls, Args: []ir.Value{a, b}}
	}
	cases := []struct {
		name, want string
		fault      func(m *ir.Module, b *ir.Block, x ir.Value) ir.Value
		// shape, when set, is a pc name the compiled main must hold.
		shape string
	}{
		{"division-by-zero", "division by zero in main", func(_ *ir.Module, b *ir.Block, x ir.Value) ir.Value {
			return b.Append(bin(ir.OpDiv, ir.I64, x, i64(0)))
		}, ""},
		{"division-by-folded-zero", "division by zero in main", func(_ *ir.Module, b *ir.Block, x ir.Value) ir.Value {
			// The zero divisor is a slot load folded into the div, whose
			// step retires before the div fails.
			s := b.Append(&ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, AllocSz: 8})
			b.Append(&ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{s, i64(0)}})
			z := b.Append(&ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{s}})
			return b.Append(bin(ir.OpDiv, ir.I64, x, z))
		}, "fold_divrem"},
		{"float-tagged-bitwise", "bitwise op and on float operands in main", func(_ *ir.Module, b *ir.Block, x ir.Value) ir.Value {
			h := b.Append(bin(ir.OpMul, ir.F64, x, ir.ConstFloat(ir.F64, 0.5)))
			return b.Append(bin(ir.OpAnd, ir.I64, x, h))
		}, ""},
		{"float-class-bitwise", "bitwise op xor on float operands in main", func(_ *ir.Module, b *ir.Block, x ir.Value) ir.Value {
			return b.Append(bin(ir.OpXor, ir.F64, x, i64(3)))
		}, ""},
		{"undefined-callee", `call to undefined "nowhere" from main`, func(_ *ir.Module, b *ir.Block, x ir.Value) ir.Value {
			return b.Append(&ir.Instr{Op: ir.OpCall, Cls: ir.I64, Callee: "nowhere", Args: []ir.Value{x}})
		}, ""},
		{"bad-indirect-call", "bad indirect call in main", func(_ *ir.Module, b *ir.Block, x ir.Value) ir.Value {
			return b.Append(&ir.Instr{Op: ir.OpCall, Cls: ir.I64, Args: []ir.Value{i64(0), x}})
		}, ""},
		{"fell-through", "block entry0 fell through in main", func(m *ir.Module, b *ir.Block, x ir.Value) ir.Value {
			b.Append(&ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{m.Globals[0], x}})
			return nil
		}, ""},
		{"callee-error", "division by zero in inner", func(m *ir.Module, b *ir.Block, x ir.Value) ir.Value {
			inner := &ir.Func{Name: "inner", Ret: ir.I64}
			p := &ir.Param{Name: "p", Cls: ir.I64, Idx: 0}
			inner.Params = []*ir.Param{p}
			ib := inner.NewBlock("entry")
			s := ib.Append(bin(ir.OpSub, ir.I64, p, i64(2)))
			q := ib.Append(bin(ir.OpRem, ir.I64, s, i64(0)))
			r := ib.Append(bin(ir.OpMul, ir.I64, q, s))
			ib.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{r}})
			m.Funcs = append(m.Funcs, inner)
			return b.Append(&ir.Instr{Op: ir.OpCall, Cls: ir.I64, Callee: "inner", Args: []ir.Value{x}})
		}, ""},
	}
	costs := interp.DefaultCosts()
	costs.ICacheThreshold = 2
	callBase := costs.Milli().CallBase
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mod := faultModule(tc.fault)
			prog := vm.Compile(mod)
			if tc.shape != "" && vm.CodeShapes(prog)[tc.shape] == 0 {
				t.Fatalf("compiled code has no %s pc (shapes %v)", tc.shape, vm.CodeShapes(prog))
			}
			for _, prof := range []bool{false, true} {
				ti := runBudgeted(mod, prog, costs, true, math.MaxInt64, prof)
				tv := runBudgeted(mod, prog, costs, false, math.MaxInt64, prof)
				if tv.err != tc.want {
					t.Fatalf("profile %v: vm error %q, want %q", prof, tv.err, tc.want)
				}
				if ti != tv {
					t.Fatalf("profile %v: tree %+v, vm %+v", prof, ti, tv)
				}
				if prof && tv.profMilli != tv.milli-callBase {
					t.Fatalf("profile attributes %d milli-cycles, want %d-%d", tv.profMilli, tv.milli, callBase)
				}
			}
		})
	}
}

// TestTripAtTrailingBr: when the step budget runs out at a fall-through
// br that trails a store, the store has run: both engines leave the same
// value in memory, and the same retired count and milli-cycles.
func TestTripAtTrailingBr(t *testing.T) {
	m := &ir.Module{Name: "trailing"}
	g := &ir.Global{Name: "g", Size: 8, ElemClass: ir.I64}
	m.Globals = append(m.Globals, g)
	f := &ir.Func{Name: "main", Ret: ir.I64}
	entry, next := f.NewBlock("entry"), f.NewBlock("next")
	v := entry.Append(&ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{g}})
	s := entry.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{v, ir.ConstInt(ir.I64, 7)}})
	entry.Append(&ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{g, ir.ConstInt(ir.I64, 5)}})
	entry.Append(&ir.Instr{Op: ir.OpBr, Cls: ir.Void, Target: next})
	next.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{s}})
	m.Funcs = append(m.Funcs, f)
	prog := vm.Compile(m)
	if vm.CodeShapes(prog)["store_fall"] == 0 {
		t.Fatalf("the store takes no trailing br (shapes %v)", vm.CodeShapes(prog))
	}
	for budget := int64(0); budget <= 5; budget++ {
		for _, prof := range []bool{false, true} {
			ti := interp.New(m, interp.DefaultCosts())
			ti.MaxSteps = budget
			tv := vm.New(prog, interp.DefaultCosts())
			tv.MaxSteps = budget
			if prof {
				ti.EnableProfile()
				tv.EnableProfile()
			}
			_, errI := ti.Run("main")
			_, errV := tv.Run("main")
			addr, _ := tv.GlobalAddr("g")
			if (errI == nil) != (errV == nil) || ti.ReadI64(addr) != tv.ReadI64(addr) ||
				ti.Executed != tv.Executed || ti.MilliCycles() != tv.MilliCycles() {
				t.Errorf("MaxSteps %d profile %v: tree %v g=%d %d retired %d milli; vm %v g=%d %d retired %d milli",
					budget, prof, errI, ti.ReadI64(addr), ti.Executed, ti.MilliCycles(),
					errV, tv.ReadI64(addr), tv.Executed, tv.MilliCycles())
			}
			tv.Release()
		}
	}
}
