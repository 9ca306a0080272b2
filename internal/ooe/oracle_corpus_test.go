package ooe_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/fuzz"
	"repro/internal/ooe"
	"repro/internal/parser"
	"repro/internal/sema"
	"repro/internal/workload"
)

// oracleConfigs are the analysis configurations every corpus is checked
// under.
var oracleConfigs = []struct {
	name string
	cfg  ooe.Config
}{
	{"default", ooe.Config{}},
	{"all-calls-impure", ooe.Config{AssumeAllCallsImpure: true}},
	{"no-gamma-clear", ooe.Config{NoGammaClear: true}},
	{"keep-bitfields", ooe.Config{KeepBitfieldPredicates: true}},
}

// checkUnit runs ooe.CheckOracle over every full expression of src
// (global initializers and function bodies) under every configuration
// and returns how many full expressions it checked per configuration.
func checkUnit(t *testing.T, name, src string) int {
	t.Helper()
	tu, perrs := parser.ParseFile(name, src, workload.Files())
	if len(perrs) > 0 {
		t.Fatalf("%s: parse: %v", name, perrs[0])
	}
	if errs := sema.Check(tu); len(errs) > 0 {
		t.Fatalf("%s: sema: %v", name, errs[0])
	}
	var exprs []ast.Expr
	for _, g := range tu.Globals {
		if g.Init != nil {
			exprs = append(exprs, g.Init)
		}
	}
	for _, f := range tu.Funcs {
		if f.Body != nil {
			exprs = append(exprs, ast.FullExprs(f.Body)...)
		}
	}
	for _, c := range oracleConfigs {
		an := ooe.New(c.cfg, ooe.FuncMap(tu))
		for _, e := range exprs {
			if err := ooe.CheckOracle(an, e); err != nil {
				t.Fatalf("%s [%s]: %v", name, c.name, err)
			}
		}
	}
	return len(exprs)
}

// TestOracleCorpus checks the bitset analysis against the map-based
// oracle on every full expression of the pipeline goldens, the kernels,
// the sanitizer program set, the SPEC-shaped units of three draws and a
// fuzz box.
func TestOracleCorpus(t *testing.T) {
	t.Run("goldens", func(t *testing.T) {
		progs, err := filepath.Glob("../../testdata/fuzz/regressions/*.c")
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, "../../examples/minmax.c")
		n := 0
		for _, p := range progs {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			n += checkUnit(t, p, string(src))
		}
		t.Logf("%d programs, %d full expressions", len(progs), n)
	})
	t.Run("kernels-and-sanitize-set", func(t *testing.T) {
		ps := []workload.Program{workload.IntroMinmax(64), workload.IntroImagick(3),
			workload.RestrictScale(), workload.AnnotatedScale(), workload.PartialOverlapKernel()}
		ps = append(ps, workload.PolybenchKernels()...)
		ps = append(ps, workload.ExtraPolybenchKernels()...)
		for _, cs := range workload.Fig2CaseStudies() {
			ps = append(ps, cs.Program)
		}
		ps = append(ps, workload.InterprocKernels()...)
		n := 0
		for _, p := range ps {
			n += checkUnit(t, p.Name, p.Source)
		}
		t.Logf("%d programs, %d full expressions", len(ps), n)
	})
	for _, draw := range []int{1, 11, 17} {
		t.Run(fmt.Sprintf("spec-draw-%d", draw), func(t *testing.T) {
			n, units := 0, 0
			for _, b := range workload.SpecSuite() {
				b.Name = fmt.Sprintf("%s.v%d", b.Name, draw)
				for _, p := range workload.GenerateUnits(b) {
					n += checkUnit(t, p.Name, p.Source)
					units++
				}
			}
			t.Logf("%d units, %d full expressions", units, n)
		})
	}
	t.Run("fuzz", func(t *testing.T) {
		seeds := 200
		if testing.Short() {
			seeds = 40
		}
		cfg := fuzz.DefaultConfig()
		cfg.RacyBias = 0.2
		n := 0
		for seed := range seeds {
			p := fuzz.Generate(int64(seed), cfg)
			n += checkUnit(t, fmt.Sprintf("fuzz-%d.c", seed), p.Source)
		}
		t.Logf("%d programs, %d full expressions", seeds, n)
	})
}

// TestOracleLargeExpressions covers expressions of more than 64 nodes,
// whose bitsets span several words, and a call under sizeof: the
// impure-call override follows ast.Walk, which reaches the unevaluated
// operand.
func TestOracleLargeExpressions(t *testing.T) {
	var init, chain strings.Builder
	for i := range 200 {
		if i > 0 {
			init.WriteString(", ")
			chain.WriteString(", ")
		}
		if i%8 == 7 {
			init.WriteString("*p + i++") // π pairs across word boundaries
		} else {
			fmt.Fprintf(&init, "a[%d]", i%16)
		}
		chain.WriteString("i++")
	}
	src := `int a[16]; int *p; struct S { int f; } s; int i;
int f(void) { return i++; }
void g(int x) {
  int big[200] = {` + init.String() + `};
  ` + chain.String() + `;
  x = i++ + sizeof(f()) + a[i];
  a[i++] = sizeof(*p = f()) + i;
}`
	if n := checkUnit(t, "large.c", src); n != 5 {
		t.Fatalf("checked %d full expressions, want 5", n)
	}
}
