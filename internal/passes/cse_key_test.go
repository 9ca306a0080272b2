package passes_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/driver"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/workload"
)

// oracleValueKey is earlycse's former string value-numbering key plus
// the lane width: the reference equivalence the typed key must keep.
func oracleValueKey(in *ir.Instr) string {
	key := fmt.Sprintf("%d|%d|%d|%d|%d|%d|%t|%d", in.Op, in.Cls, in.Scale, in.Off, in.Pred, in.VecOp, in.Unsigned, in.Width)
	for _, a := range in.Args {
		key += "|" + oracleArgKey(a)
	}
	return key
}

func oracleArgKey(a ir.Value) string {
	switch x := a.(type) {
	case *ir.Const:
		if x.Cls.IsFloat() {
			return fmt.Sprintf("cf%g", x.F)
		}
		return fmt.Sprintf("ci%d", x.I)
	case *ir.Global:
		return "g" + x.Name
	case *ir.Param:
		return fmt.Sprintf("p%d", x.Idx)
	case *ir.FuncRef:
		return "f" + x.Name
	case *ir.Instr:
		return fmt.Sprintf("v%d", x.ID)
	}
	return "?"
}

// keyOracle checks that the typed keys partition instructions exactly
// as the oracle strings do: equal keys map to one string and equal
// strings to one key.
type keyOracle struct {
	byKey map[passes.VNKey]string
	byStr map[string]passes.VNKey
	n     int
}

func newKeyOracle() *keyOracle {
	return &keyOracle{byKey: map[passes.VNKey]string{}, byStr: map[string]passes.VNKey{}}
}

func (o *keyOracle) check(t *testing.T, where string, in *ir.Instr) {
	k, s := passes.ValueKey(in), oracleValueKey(in)
	if prev, ok := o.byKey[k]; ok && prev != s {
		t.Errorf("%s: %s: typed key merges oracle keys %q and %q", where, in.Op, prev, s)
	}
	if prev, ok := o.byStr[s]; ok && prev != k {
		t.Errorf("%s: %s: oracle key %q maps to two typed keys", where, in.Op, s)
	}
	o.byKey[k], o.byStr[s] = s, k
	o.n++
}

// keyProbe is a no-op pass that feeds every instruction of the function
// to the oracle, so the check sees the IR exactly as the earlycse runs
// after it do.
type keyProbe struct {
	t    *testing.T
	prog string
	o    *keyOracle
}

func (keyProbe) Name() string { return "keyprobe" }

func (p keyProbe) Run(f *ir.Func, _ *passes.AnalysisManager) (passes.Stats, passes.Preserved) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			p.o.check(p.t, p.prog+":"+f.Name, in)
		}
	}
	return passes.Stats{}, ^passes.PreserveNone
}

// TestValueKeyMatchesOracle compiles the golden programs, the Table 4
// kernels and one SPEC-shaped unit with a probe ahead of every pass
// that runs earlycse (licm runs it inside) and at the end, and checks
// the typed key against the string oracle on every instruction seen.
func TestValueKeyMatchesOracle(t *testing.T) {
	o := newKeyOracle()
	for _, u := range oracleCorpus(t) {
		compileProbed(t, u, keyProbe{t: t, prog: u.Name, o: o}, "earlycse", "licm")
	}
	if o.n == 0 {
		t.Fatal("the probe saw no instructions")
	}
	t.Logf("%d instructions, %d distinct keys", o.n, len(o.byKey))
}

// oracleCorpus is the oracle tests' program set: the golden programs,
// the Table 4 kernels and the first SPEC-shaped gcc unit.
func oracleCorpus(t *testing.T) []workload.Program {
	t.Helper()
	progs, err := filepath.Glob("../../testdata/fuzz/regressions/*.c")
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, "../../examples/minmax.c")
	var units []workload.Program
	for _, p := range progs {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, workload.Program{Name: filepath.Base(p), Source: string(src)})
	}
	units = append(units, workload.PolybenchKernels()...)
	return append(units, workload.GenerateUnits(workload.SpecSuite()[0])[0])
}

// compileProbed compiles u under OOElala at -j1 with probe inserted
// ahead of every default-pipeline pass named in before, and at the end.
func compileProbed(t *testing.T, u workload.Program, probe passes.Pass, before ...string) {
	t.Helper()
	var seq []passes.Pass
	for _, p := range passes.DefaultPipeline().Passes() {
		if slices.Contains(before, p.Name()) {
			seq = append(seq, probe)
		}
		seq = append(seq, p)
	}
	opts := passes.DefaultOptions()
	opts.Pipeline = passes.NewPipeline(append(seq, probe)...)
	opts.Jobs = 1
	if _, err := driver.Compile(u.Name, u.Source, driver.Config{
		OOElala: true, Files: workload.Files(), PassOptions: &opts,
	}); err != nil {
		t.Fatalf("%s: %v", u.Name, err)
	}
}

// TestValueKeyEdgeCases pins each operand equivalence rule on hand-built
// operands, against both the typed key and the oracle.
func TestValueKeyEdgeCases(t *testing.T) {
	fn := &ir.Func{Name: "t", Ret: ir.Void}
	b := fn.NewBlock("entry")
	v := b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64})
	vSameID := &ir.Instr{ID: v.ID, Op: ir.OpSub, Cls: ir.I32}
	w := b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64})
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	f64 := func(x float64) ir.Value { return ir.ConstFloat(ir.F64, x) }

	for _, c := range []struct {
		name string
		a, b []ir.Value
		same bool
	}{
		{"ci ignores class", []ir.Value{ir.ConstInt(ir.I32, 5)}, []ir.Value{ir.ConstInt(ir.I64, 5)}, true},
		{"ci by value", []ir.Value{ir.ConstInt(ir.I64, 5)}, []ir.Value{ir.ConstInt(ir.I64, 6)}, false},
		{"ci vs cf", []ir.Value{ir.ConstInt(ir.I64, 0)}, []ir.Value{f64(0)}, false},
		{"cf ignores class", []ir.Value{ir.ConstFloat(ir.F32, 0.5)}, []ir.Value{f64(0.5)}, true},
		{"every NaN is one key", []ir.Value{f64(math.NaN())}, []ir.Value{f64(nan2)}, true},
		{"-NaN is NaN", []ir.Value{f64(math.NaN())}, []ir.Value{f64(math.Copysign(math.NaN(), -1))}, true},
		{"-0 is not 0", []ir.Value{f64(math.Copysign(0, -1))}, []ir.Value{f64(0)}, false},
		{"+Inf is not -Inf", []ir.Value{f64(math.Inf(1))}, []ir.Value{f64(math.Inf(-1))}, false},
		{"global by name", []ir.Value{&ir.Global{Name: "x"}}, []ir.Value{&ir.Global{Name: "x", Size: 8}}, true},
		{"global x is not funcref x", []ir.Value{&ir.Global{Name: "x"}}, []ir.Value{&ir.FuncRef{Name: "x"}}, false},
		{"funcref by name", []ir.Value{&ir.FuncRef{Name: "x"}}, []ir.Value{&ir.FuncRef{Name: "y"}}, false},
		{"param by index", []ir.Value{&ir.Param{Name: "a", Idx: 1}}, []ir.Value{&ir.Param{Name: "b", Idx: 1, Cls: ir.Ptr}}, true},
		{"params of two indexes", []ir.Value{&ir.Param{Idx: 0}}, []ir.Value{&ir.Param{Idx: 1}}, false},
		{"param is not instr of that number", []ir.Value{&ir.Param{Idx: v.ID}}, []ir.Value{v}, false},
		{"instr by ID", []ir.Value{v}, []ir.Value{vSameID}, true},
		{"instrs of two IDs", []ir.Value{v}, []ir.Value{w}, false},
		{"nil operands", []ir.Value{nil}, []ir.Value{nil}, true},
		{"operand count", []ir.Value{v}, []ir.Value{v, v}, false},
		{"4 operands, equal", []ir.Value{v, w, v, f64(1)}, []ir.Value{v, w, v, f64(1)}, true},
		{"4 operands, 4th differs", []ir.Value{v, w, v, f64(1)}, []ir.Value{v, w, v, f64(2)}, false},
		{"5 operands, names differ", []ir.Value{v, w, v, w, &ir.Global{Name: "ab"}}, []ir.Value{v, w, v, w, &ir.Global{Name: "a"}}, false},
		{"wide names are length-prefixed",
			[]ir.Value{v, w, v, &ir.Global{Name: "a\x03\x00b"}, &ir.Global{Name: ""}},
			[]ir.Value{v, w, v, &ir.Global{Name: "a"}, &ir.Global{Name: "b\x03\x00"}}, false},
	} {
		x := &ir.Instr{Op: ir.OpSelect, Cls: ir.I64, Args: c.a}
		y := &ir.Instr{Op: ir.OpSelect, Cls: ir.I64, Args: c.b}
		if got := oracleValueKey(x) == oracleValueKey(y); got != c.same {
			t.Errorf("%s: oracle equal = %v, want %v", c.name, got, c.same)
		}
		if got := passes.ValueKey(x) == passes.ValueKey(y); got != c.same {
			t.Errorf("%s: typed key equal = %v, want %v", c.name, got, c.same)
		}
		if wide := passes.ValueKey(x).Wide(); wide != (len(c.a) > 3) {
			t.Errorf("%s: wide fallback = %v with %d operands", c.name, wide, len(c.a))
		}
	}

	// The instruction's own fields, lane width included.
	base := ir.Instr{Op: ir.OpVecSplat, Cls: ir.F64, Width: 4, Args: []ir.Value{v}}
	for _, mut := range []func(in *ir.Instr){
		func(in *ir.Instr) { in.Width = 8 },
		func(in *ir.Instr) { in.Cls = ir.F32 },
		func(in *ir.Instr) { in.Op = ir.OpConvert },
		func(in *ir.Instr) { in.Unsigned = true },
		func(in *ir.Instr) { in.Scale = 8 },
		func(in *ir.Instr) { in.Off = 8 },
		func(in *ir.Instr) { in.Pred = ir.Pred(1) },
		func(in *ir.Instr) { in.VecOp = ir.OpAdd },
	} {
		in := base
		mut(&in)
		if passes.ValueKey(&in) == passes.ValueKey(&base) || oracleValueKey(&in) == oracleValueKey(&base) {
			t.Errorf("%s/%s: mutated field not in the key", in.Op, oracleValueKey(&in))
		}
	}
}
