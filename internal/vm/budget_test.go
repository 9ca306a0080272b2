package vm_test

import (
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
}

// outcome is everything one budgeted run observably leaves behind.
type outcome struct {
	err       string
	executed  int64
	milli     int64
	profMilli int64
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
	_, err := m.Run("main")
	o := outcome{executed: executed(), milli: m.MilliCycles()}
	if err != nil {
		o.err = strings.TrimPrefix(strings.TrimPrefix(err.Error(), "interp: "), "vm: ")
	}
	for _, s := range m.ProfileSamples() {
		o.profMilli += int64(math.Round(s.Cycles * 1000))
	}
	return o
}

// budgetModule is a hand-built program whose segments hold every shape
// the budget can trip inside: a memset, a call in the middle of a block,
// fused gep+load, gep+store and cmp+br pairs, and register-class slot
// traffic.
func budgetModule() *ir.Module {
	m := &ir.Module{Name: "budget"}
	arr := &ir.Global{Name: "arr", Size: 128, ElemClass: ir.I64}
	m.Globals = append(m.Globals, arr)

	helper := &ir.Func{Name: "helper", Ret: ir.I64}
	x := &ir.Param{Name: "x", Cls: ir.I64, Idx: 0}
	helper.Params = []*ir.Param{x}
	hb := helper.NewBlock("entry")
	dbl := hb.Append(&ir.Instr{Op: ir.OpMul, Cls: ir.I64, Args: []ir.Value{x, ir.ConstInt(ir.I64, 2)}})
	hb.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{dbl}})

	f := &ir.Func{Name: "main", Ret: ir.I64}
	entry, loop, exit := f.NewBlock("entry"), f.NewBlock("loop"), f.NewBlock("exit")
	slot := entry.Append(&ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, AllocSz: 8})
	entry.Append(&ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{slot, ir.ConstInt(ir.I64, 0)}})
	entry.Append(&ir.Instr{Op: ir.OpMemset, Cls: ir.Void, Scale: 8,
		Args: []ir.Value{arr, ir.ConstInt(ir.I64, 3), ir.ConstInt(ir.I64, 128)}})
	entry.Append(&ir.Instr{Op: ir.OpBr, Cls: ir.Void, Target: loop})

	i := loop.Append(&ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{slot}})
	p := loop.Append(&ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr, Scale: 8, Args: []ir.Value{arr, i}})
	v := loop.Append(&ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{p}})
	c := loop.Append(&ir.Instr{Op: ir.OpCall, Cls: ir.I64, Callee: "helper", Args: []ir.Value{v}})
	q := loop.Append(&ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr, Scale: 8, Off: 8, Args: []ir.Value{arr, i}})
	loop.Append(&ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{q, c}})
	i1 := loop.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{i, ir.ConstInt(ir.I64, 1)}})
	loop.Append(&ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{slot, i1}})
	lt := loop.Append(&ir.Instr{Op: ir.OpCmp, Cls: ir.I32, Pred: ir.Lt, Args: []ir.Value{i1, ir.ConstInt(ir.I64, 4)}})
	loop.Append(&ir.Instr{Op: ir.OpCondBr, Cls: ir.Void, Args: []ir.Value{lt}, Then: loop, Else: exit})

	last := exit.Append(&ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr, Scale: 8, Args: []ir.Value{arr, ir.ConstInt(ir.I64, 4)}})
	r := exit.Append(&ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{last}})
	exit.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{r}})
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
// of a fused pair, inside a callee — the engines must agree on the
// error, the retired count, the exact milli-cycle total and the
// profile's attributed total, and the profile must reconcile to the
// total minus the top-level CallBase.
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
	// main pays the per-step penalty, which a fused pair that trips on
	// its second half must pay for its first.
	icache := interp.DefaultCosts()
	icache.ICacheThreshold = 8
	cases := []struct {
		name  string
		mod   *ir.Module
		costs interp.CostModel
	}{
		{"minmax-O0", compile(driver.Config{NoOpt: true}), interp.DefaultCosts()},
		{"minmax-unseq-O3", compile(driver.Config{OOElala: true}), interp.DefaultCosts()},
		{"hand-built", budgetModule(), icache},
		{"fell-through", fellThroughModule(), interp.DefaultCosts()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := vm.Compile(tc.mod)
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
