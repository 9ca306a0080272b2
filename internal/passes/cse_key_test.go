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

// keyOracle checks that the value-number keys of one numbering context
// partition instructions exactly as the oracle strings do: equal keys
// map to one string and equal strings to one key. Value numbers mean
// something only within their context, so each context gets its own
// oracle.
type keyOracle struct {
	vn    *passes.ValueNumbers
	byKey map[passes.VNKey]string
	byStr map[string]passes.VNKey
	n     int
}

func newKeyOracle() *keyOracle {
	return &keyOracle{vn: passes.NewValueNumbers(), byKey: map[passes.VNKey]string{}, byStr: map[string]passes.VNKey{}}
}

func (o *keyOracle) check(t *testing.T, where string, in *ir.Instr) {
	k, s := o.vn.Key(in), oracleValueKey(in)
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
// to an oracle with a fresh numbering context, as an earlycse call
// starts with, so the check sees the IR exactly as the earlycse runs
// after it do.
type keyProbe struct {
	t          *testing.T
	prog       string
	seen, keys *int
}

func (keyProbe) Name() string { return "keyprobe" }

func (p keyProbe) Run(f *ir.Func, _ *passes.AnalysisManager) (passes.Stats, passes.Preserved) {
	o := newKeyOracle()
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			o.check(p.t, p.prog+":"+f.Name, in)
		}
	}
	*p.seen += o.n
	*p.keys += len(o.byKey)
	return passes.Stats{}, ^passes.PreserveNone
}

// TestValueKeyMatchesOracle compiles the golden programs, the Table 4
// kernels and one SPEC-shaped unit with a probe ahead of every pass
// that runs earlycse (licm runs it inside) and at the end, and checks
// the value-number key against the string oracle on every instruction
// seen, within one numbering context per function.
func TestValueKeyMatchesOracle(t *testing.T) {
	var seen, keys int
	for _, u := range oracleCorpus(t) {
		compileProbed(t, u, keyProbe{t: t, prog: u.Name, seen: &seen, keys: &keys}, "earlycse", "licm")
	}
	if seen == 0 {
		t.Fatal("the probe saw no instructions")
	}
	t.Logf("%d instructions, %d distinct keys summed over contexts", seen, keys)
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
// operands, against both the value-number key and the oracle. Each case
// numbers its two instructions in a fresh context, once in each order,
// and again in one context shared by every case.
func TestValueKeyEdgeCases(t *testing.T) {
	fn := &ir.Func{Name: "t", Ret: ir.Void}
	b := fn.NewBlock("entry")
	v := b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64})
	if v.ID != 0 {
		t.Fatalf("first instruction has ID %d, want 0", v.ID)
	}
	vSameID := &ir.Instr{ID: v.ID, Op: ir.OpSub, Cls: ir.I32}
	w := b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64})
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	f64 := func(x float64) ir.Value { return ir.ConstFloat(ir.F64, x) }
	shared := passes.NewValueNumbers()

	for _, c := range []struct {
		name string
		a, b []ir.Value
		same bool
	}{
		{"two consts of one value", []ir.Value{ir.ConstInt(ir.I64, 5)}, []ir.Value{ir.ConstInt(ir.I64, 5)}, true},
		{"ci ignores class", []ir.Value{ir.ConstInt(ir.I32, 5)}, []ir.Value{ir.ConstInt(ir.I64, 5)}, true},
		{"ci of three classes", []ir.Value{ir.ConstInt(ir.I8, -1), ir.ConstInt(ir.I32, -1), ir.ConstInt(ir.Ptr, -1)},
			[]ir.Value{ir.ConstInt(ir.I64, -1), ir.ConstInt(ir.I16, -1), ir.ConstInt(ir.I64, -1)}, true},
		{"ci by value", []ir.Value{ir.ConstInt(ir.I64, 5)}, []ir.Value{ir.ConstInt(ir.I64, 6)}, false},
		{"ci vs cf", []ir.Value{ir.ConstInt(ir.I64, 0)}, []ir.Value{f64(0)}, false},
		{"cf ignores class", []ir.Value{ir.ConstFloat(ir.F32, 0.5)}, []ir.Value{f64(0.5)}, true},
		{"every NaN is one key", []ir.Value{f64(math.NaN())}, []ir.Value{f64(nan2)}, true},
		{"-NaN is NaN", []ir.Value{f64(math.NaN())}, []ir.Value{f64(math.Copysign(math.NaN(), -1))}, true},
		{"-0 is not 0", []ir.Value{f64(math.Copysign(0, -1))}, []ir.Value{f64(0)}, false},
		{"+Inf is not -Inf", []ir.Value{f64(math.Inf(1))}, []ir.Value{f64(math.Inf(-1))}, false},
		{"global by name", []ir.Value{&ir.Global{Name: "x"}}, []ir.Value{&ir.Global{Name: "x", Size: 8}}, true},
		{"global x is not funcref x", []ir.Value{&ir.Global{Name: "x"}}, []ir.Value{&ir.FuncRef{Name: "x"}}, false},
		{"global f is not funcref f", []ir.Value{&ir.Global{Name: "f"}, v}, []ir.Value{&ir.FuncRef{Name: "f"}, v}, false},
		{"funcref by name", []ir.Value{&ir.FuncRef{Name: "x"}}, []ir.Value{&ir.FuncRef{Name: "y"}}, false},
		{"param by index", []ir.Value{&ir.Param{Name: "a", Idx: 1}}, []ir.Value{&ir.Param{Name: "b", Idx: 1, Cls: ir.Ptr}}, true},
		{"params of two indexes", []ir.Value{&ir.Param{Idx: 0}}, []ir.Value{&ir.Param{Idx: 1}}, false},
		{"param 0 is not instr 0", []ir.Value{&ir.Param{Idx: 0}}, []ir.Value{v}, false},
		{"const 0 is not instr 0", []ir.Value{ir.ConstInt(ir.I64, 0)}, []ir.Value{v}, false},
		{"instr by ID", []ir.Value{v}, []ir.Value{vSameID}, true},
		{"instrs of two IDs", []ir.Value{v}, []ir.Value{w}, false},
		{"nil operands", []ir.Value{nil}, []ir.Value{nil}, true},
		{"operand count", []ir.Value{v}, []ir.Value{v, v}, false},
		{"4 operands, equal", []ir.Value{v, w, v, f64(1)}, []ir.Value{v, w, v, f64(1)}, true},
		{"4 operands, 4th differs", []ir.Value{v, w, v, f64(1)}, []ir.Value{v, w, v, f64(2)}, false},
		{"wide consts by value", []ir.Value{v, w, v, ir.ConstInt(ir.I32, 4), f64(math.NaN())},
			[]ir.Value{v, w, v, ir.ConstInt(ir.I64, 4), f64(nan2)}, true},
		{"wide tail order", []ir.Value{v, w, v, v, w}, []ir.Value{v, w, v, w, v}, false},
		{"wide param is not wide instr", []ir.Value{v, w, v, &ir.Param{Idx: 0}}, []ir.Value{v, w, v, v}, false},
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
		fwd, rev := passes.NewValueNumbers(), passes.NewValueNumbers()
		kx, ky := fwd.Key(x), fwd.Key(y)
		ry := rev.Key(y)
		for _, keys := range []struct {
			ctx  string
			x, y passes.VNKey
		}{{"fresh", kx, ky}, {"fresh, reversed", rev.Key(x), ry}, {"shared", shared.Key(x), shared.Key(y)}} {
			if got := keys.x == keys.y; got != c.same {
				t.Errorf("%s: %s context: key equal = %v, want %v", c.name, keys.ctx, got, c.same)
			}
		}
		if wide := kx.Wide(); wide != (len(c.a) > 3) {
			t.Errorf("%s: wide number = %v with %d operands", c.name, wide, len(c.a))
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
		if shared.Key(&in) == shared.Key(&base) || oracleValueKey(&in) == oracleValueKey(&base) {
			t.Errorf("%s/%s: mutated field not in the key", in.Op, oracleValueKey(&in))
		}
	}
}
