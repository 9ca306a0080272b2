package vm_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/driver"
	"repro/internal/fuzz"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/workload"
)

// run is everything one vm run leaves behind that the compile-time
// decisions must not change.
type run struct {
	value    interp.Val
	err      string
	milli    int64
	executed int64
	failures []interp.SanitizerFailure
}

func runVM(p *vm.Program, maxSteps int64) run {
	m := vm.New(p, interp.DefaultCosts())
	defer m.Release()
	if maxSteps > 0 {
		m.MaxSteps = maxSteps
	}
	v, err := m.Run("main")
	r := run{value: v, milli: m.MilliCycles(), executed: m.Executed}
	if err != nil {
		r.err = err.Error()
	}
	for _, f := range m.SanFailures {
		r.failures = append(r.failures, *f)
	}
	return r
}

// agree runs mod compiled with and without the compile-time decisions
// and fails unless both give the same value, error, milli-cycles,
// retired count and sanitizer failures, in order. It returns the run.
func agree(t *testing.T, name string, mod *ir.Module, maxSteps int64) run {
	t.Helper()
	got := runVM(vm.Compile(mod), maxSteps)
	want := runVM(vm.CompileDecideNothing(mod), maxSteps)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: decided %+v, decide-nothing %+v", name, got, want)
	}
	return got
}

func compileSanitized(t *testing.T, name, src string) *ir.Module {
	t.Helper()
	c, err := driver.Compile(name, src, driver.Config{OOElala: true, Sanitize: true, Files: workload.Files()})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return c.Module
}

// sanitizeSet is the ooebench -ubsan program set with the SPEC-shaped
// units of one draw, as the sanitize benchmark workload draws them.
func sanitizeSet(draw int) []workload.Program {
	ps := []workload.Program{workload.IntroMinmax(64), workload.IntroImagick(3)}
	ps = append(ps, workload.PolybenchKernels()...)
	ps = append(ps, workload.ExtraPolybenchKernels()...)
	ps = append(ps, workload.RestrictScale(), workload.AnnotatedScale(), workload.PartialOverlapKernel())
	for _, cs := range workload.Fig2CaseStudies() {
		ps = append(ps, cs.Program)
	}
	for _, b := range workload.SpecSuite() {
		b.Name = fmt.Sprintf("%s.v%d", b.Name, draw)
		ps = append(ps, workload.GenerateUnits(b)...)
	}
	return ps
}

// TestDecisionsAgreeSanitizeSet checks the decided checks and register
// slots against a decide-nothing compile over the sanitize set of two
// SPEC-shaped draws, and logs how many checks compile time decided: of
// those in the code, and for draw 11 of those executed.
func TestDecisionsAgreeSanitizeSet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sanitize set twice per draw")
	}
	for _, draw := range []int{1, 11} {
		var static, staticDecided, slotPCs int
		var executed, executedDecided int64
		for _, p := range sanitizeSet(draw) {
			mod := compileSanitized(t, p.Name, p.Source)
			r := agree(t, p.Name, mod, 0)
			if r.err != "" {
				t.Errorf("%s: %s", p.Name, r.err)
			}
			prog := vm.Compile(mod)
			shapes := vm.CodeShapes(prog)
			static += shapes["ubcheck"]
			staticDecided += shapes["ubcheck-decided"]
			slotPCs += shapes["slot-load"] + shapes["slot-store"]
			if draw == 11 {
				n, d := vm.ExecutedChecks(prog)
				executed += n
				executedDecided += d
			}
		}
		if staticDecided == 0 || slotPCs == 0 {
			t.Errorf("draw %d: %d decided checks and %d slot loads and stores in the code, want some of each", draw, staticDecided, slotPCs)
		}
		t.Logf("draw %d: %d of %d checks decided in the code (%.1f%%), %d slot loads and stores",
			draw, staticDecided, static, 100*float64(staticDecided)/float64(max(static, 1)), slotPCs)
		if draw == 11 {
			t.Logf("draw 11: %d of %d executed checks decided (%.1f%%)",
				executedDecided, executed, 100*float64(executedDecided)/float64(max(executed, 1)))
		}
	}
}

// TestDecisionsAgreeFailingPrograms runs the programs the sanitizer
// tests and the ubsan CLI tests must catch, and the ones they must pass:
// the decided compile must report the very same failures.
func TestDecisionsAgreeFailingPrograms(t *testing.T) {
	progs := map[string]string{
		// TestAliasedRaceCaught, TestDoubleWriteCaught.
		"race": `int i;
int main() {
  i = 1;
  int *p = &i;
  *p = ++i + 1;
  return i;
}`,
		"ww": `int x;
int *p = &x;
int *q = &x;
int main() { return (*p = 1) + (*q = 2); }`,
		// TestSanitizerAgreesWithCsem.
		"defined-swap":    `int main() { int x = 1, y = 2; int r = (x = 3) + (y = 4); return r + x + y; }`,
		"aliased-incdec":  `int i; int main() { int *p = &i; return (*p = 5) + i++; }`,
		"self-assign-ok":  `int main() { int x = 2; x = x + x; return x; }`,
		"array-elems-ok":  `int a[4]; int main() { return (a[0] = 1) + (a[1] = 2); }`,
		"array-same-elem": `int a[4]; int z; int main() { return (a[z] = 1) + (a[0] = 2); }`,
	}
	// TestUbsanExitCodes.
	for _, f := range []string{"clean.c", "racy.c"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "cmd", "ubsan", "testdata", f))
		if err != nil {
			t.Fatal(err)
		}
		progs["ubsan-"+f] = string(src)
	}
	mustFail := map[string]bool{"race": true, "ww": true, "aliased-incdec": true, "array-same-elem": true, "ubsan-racy.c": true}
	for name, src := range progs {
		r := agree(t, name, compileSanitized(t, name, src), 0)
		if got := len(r.failures) > 0; got != mustFail[name] {
			t.Errorf("%s: %d sanitizer failures, want failures: %v", name, len(r.failures), mustFail[name])
		}
	}
}

// TestDecisionsAgreeFuzzBox runs a seeded box of generated programs,
// racy ones included, built as the sanitizer builds them and at O0.
func TestDecisionsAgreeFuzzBox(t *testing.T) {
	cfg := fuzz.DefaultConfig()
	cfg.RacyBias = 0.3
	seeds := 120
	if testing.Short() {
		seeds = 30
	}
	failing := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		p := fuzz.Generate(seed, cfg)
		for _, leg := range []driver.Config{{OOElala: true, Sanitize: true}, {NoOpt: true}} {
			c, err := driver.Compile("fuzz.c", p.Source, leg)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if r := agree(t, fmt.Sprintf("seed %d %+v", seed, leg), c.Module, 20_000_000); len(r.failures) > 0 {
				failing++
			}
		}
	}
	if failing == 0 {
		t.Errorf("no program of the box fails a check; the box does not reach the failure path")
	}
}

// TestOutOfBoundsOntoSlot pins the boundary of engine equivalence: a
// store through out-of-bounds pointer arithmetic from y lands on x,
// whose loads and stores go through a register slot. The decide-nothing
// compile reads the store back, as the tree-walker does; the decided
// one reads the slot. C leaves the program undefined.
func TestOutOfBoundsOntoSlot(t *testing.T) {
	c, err := driver.Compile("oob.c", `
int main() {
  int x = 1;
  int y = 2;
  int *p = &y;
  *(p - 9) = 5;
  return x;
}`, driver.Config{NoOpt: true})
	if err != nil {
		t.Fatal(err)
	}
	tree := interp.New(c.Module, interp.DefaultCosts())
	want, err := tree.RunArgs("main")
	if err != nil {
		t.Fatal(err)
	}
	plain := runVM(vm.CompileDecideNothing(c.Module), 0)
	if plain.value.I != want || plain.milli != tree.MilliCycles() || plain.executed != tree.Executed {
		t.Errorf("decide-nothing vm: %+v, tree-walker: %d, %d milli-cycles, %d retired", plain, want, tree.MilliCycles(), tree.Executed)
	}
	if want != 5 {
		t.Fatalf("tree-walker returns %d, want 5: the store no longer lands on x", want)
	}
	prog := vm.Compile(c.Module)
	if s := vm.CodeShapes(prog); s["slot-load"] == 0 {
		t.Fatalf("x has no register slot (shapes %v)", s)
	}
	if got := runVM(prog, 0); got.value.I != 1 {
		t.Errorf("decided vm returns %d, want x's slot, 1", got.value.I)
	}
}

// TestStepBudgetDecideNothing sweeps every step budget over the
// hand-built program compiled without the decisions, as TestStepBudget
// does with them, so the memory forms of the chains that the decisions
// turn into slot forms stay covered: the engines must agree at every
// budget, profiling off and on.
func TestStepBudgetDecideNothing(t *testing.T) {
	mod := budgetModule()
	costs := interp.DefaultCosts()
	costs.ICacheThreshold = 8
	prog := vm.CompileDecideNothing(mod)
	for _, name := range []string{"load_conv_gep", "load_cmp_br", "iadd_store", "ubcheck-run"} {
		if vm.CodeShapes(prog)[name] == 0 {
			t.Fatalf("decide-nothing code has no %s pc", name)
		}
	}
	full := interp.New(mod, costs)
	full.Run("main")
	for budget := int64(0); budget <= full.Executed+2; budget++ {
		for _, prof := range []bool{false, true} {
			ti := runBudgeted(mod, prog, costs, true, budget, prof)
			tv := runBudgeted(mod, prog, costs, false, budget, prof)
			if ti != tv {
				t.Fatalf("MaxSteps %d profile %v: tree %+v, vm %+v", budget, prof, ti, tv)
			}
		}
	}
}

// gemmSanitized is gemm built as the sanitizer builds it, the run leg
// BenchmarkRunLeg times as gemm-sanitize-O0.
func gemmSanitized(t *testing.T) *ir.Module {
	return compileSanitized(t, "gemm", workload.Gemm().Source)
}

// TestGemmSanitizeShapes pins how much of gemm's sanitized run the
// compile-time decisions take: 36 of its 45 checks are decided, its
// slot allocas carry 79 loads and 32 stores, 32 of the loads fold into
// the pc after them, 8 brs trail the pc before them and 24 pcs execute
// four or more IR instructions. A change that loses them fails here,
// not only in the benchmark.
func TestGemmSanitizeShapes(t *testing.T) {
	shapes := vm.CodeShapes(vm.Compile(gemmSanitized(t)))
	want := map[string]int{"ubcheck": 45, "ubcheck-decided": 36, "slot-load": 79, "slot-store": 32,
		"slot-fold": 32, "fall-br": 8, "4+-step": 24}
	for name, n := range want {
		if shapes[name] != n {
			t.Errorf("%s: %d pcs, want %d (shapes %v)", name, shapes[name], n, shapes)
		}
	}
	if n, d := vm.ExecutedChecks(vm.Compile(gemmSanitized(t))); n != 19_958_400 || d != 15_966_720 {
		t.Errorf("gemm executes %d checks, %d of them decided; want 19958400 and 15966720", n, d)
	}
}

// TestCompileAllocs pins vm.Compile's allocations on gemm's sanitized
// module: the per-function tables, the decisions' and the dominator
// tree's included, are sized once per Compile, at the largest function,
// and reused across functions.
func TestCompileAllocs(t *testing.T) {
	mod := gemmSanitized(t)
	if n := testing.AllocsPerRun(20, func() { vm.Compile(mod) }); n > 45 {
		t.Errorf("vm.Compile allocates %v times on gemm's sanitized module, want at most 45", n)
	}
}
