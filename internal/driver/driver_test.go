package driver

import (
	"strings"
	"testing"
)

const simple = `int g;
int main() {
  int a = 0, b = 0;
  int r = (a = 3) + (b = 4);
  g = r;
  return r + a * 10 + b;
}`

func TestCompileAndRun(t *testing.T) {
	c, err := Compile("simple.c", simple, Config{OOElala: true})
	if err != nil {
		t.Fatal(err)
	}
	res, cycles, err := c.Run("")
	if err != nil {
		t.Fatal(err)
	}
	if res != 41 {
		t.Errorf("result %d want 41", res)
	}
	if cycles <= 0 {
		t.Error("no cycles accounted")
	}
}

func TestFrontendStats(t *testing.T) {
	c, err := Compile("simple.c", simple, Config{OOElala: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.Frontend.FullExprs == 0 {
		t.Error("no full expressions counted")
	}
	if c.Frontend.FullExprsUnseqSE == 0 {
		t.Error("(a=3)+(b=4) has unsequenced side effects")
	}
	if c.Frontend.InitialPreds == 0 {
		t.Error("predicates expected")
	}
}

func TestBaselineHasNoIntrinsics(t *testing.T) {
	c, err := Compile("simple.c", simple, Config{OOElala: false})
	if err != nil {
		t.Fatal(err)
	}
	if c.FinalPreds != 0 || c.AAStats.UnseqNoAlias != 0 {
		t.Errorf("baseline must not carry predicates: final=%d noalias=%d",
			c.FinalPreds, c.AAStats.UnseqNoAlias)
	}
	// The frontend statistics are still collected (Table 5 col 3-4 are
	// properties of the source, not of the configuration).
	if c.Frontend.InitialPreds == 0 {
		t.Error("frontend stats missing in baseline")
	}
}

func TestNoOptKeepsIRUnoptimized(t *testing.T) {
	c, err := Compile("simple.c", simple, Config{OOElala: true, NoOpt: true})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := c.Run("")
	if err != nil {
		t.Fatal(err)
	}
	if res != 41 {
		t.Errorf("O0 result %d", res)
	}
	if c.PassStats.CSESimplified != 0 || c.PassStats.LoopsVectorized != 0 {
		t.Errorf("O0 must run no passes: %s", c.PassStats)
	}
}

func TestDefines(t *testing.T) {
	src := `int main() { return TWICE(N); }`
	c, err := Compile("defs.c", src, Config{OOElala: true,
		Defines: map[string]string{"N": "21", "TWICE(x)": "((x) + (x))"}})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := c.Run("")
	if err != nil {
		t.Fatal(err)
	}
	if res != 42 {
		t.Errorf("define not applied: %d", res)
	}

	// -D must not shift source positions: diagnostics and instruction
	// spans read the same with and without predefined macros.
	two := map[string]string{"N": "1", "M": "2"}
	bad := "int main() {\n  return undeclared;\n}\n"
	_, plainErr := Compile("e.c", bad, Config{})
	_, defErr := Compile("e.c", bad, Config{Defines: two})
	if plainErr == nil || defErr == nil {
		t.Fatalf("undeclared identifier compiled: %v / %v", plainErr, defErr)
	}
	if !strings.Contains(plainErr.Error(), "e.c:2:") || defErr.Error() != plainErr.Error() {
		t.Errorf("diagnostic moved under -D:\n  without: %v\n  with:    %v", plainErr, defErr)
	}
	spans := func(defines map[string]string) string {
		c, err := Compile("simple.c", simple, Config{NoOpt: true, Defines: defines})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, f := range c.Module.Funcs {
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					out = append(out, in.Span.String())
				}
			}
		}
		return strings.Join(out, " ")
	}
	if without, with := spans(nil), spans(two); !strings.Contains(without, "simple.c:4:") || with != without {
		t.Errorf("instruction spans moved under -D:\n  without: %s\n  with:    %s", without, with)
	}

	// A -D body that fails to lex is a compile error.
	if _, err := Compile("defs.c", src, Config{Defines: map[string]string{"N": `"21`}}); err == nil {
		t.Error("unterminated string in a -D body compiled")
	}
}

func TestIncludeFiles(t *testing.T) {
	src := `#include "lib.h"
int main() { return helper(20); }`
	files := map[string]string{"lib.h": "int helper(int x) { return x + 1; }"}
	c, err := Compile("inc.c", src, Config{OOElala: true, Files: files})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := c.Run("")
	if err != nil {
		t.Fatal(err)
	}
	if res != 21 {
		t.Errorf("include: %d", res)
	}
}

func TestParseErrorSurfaces(t *testing.T) {
	if _, err := Compile("bad.c", "int main( { return 0; }", Config{}); err == nil {
		t.Error("parse error must surface")
	} else if !strings.Contains(err.Error(), "parse") {
		t.Errorf("error should mention parse: %v", err)
	}
}

func TestSemaErrorSurfaces(t *testing.T) {
	if _, err := Compile("bad.c", "int main() { return undeclared_var; }", Config{}); err == nil {
		t.Error("sema error must surface")
	}
}

func TestSpeedupDetectsMiscompiles(t *testing.T) {
	// Speedup requires identical results; a correct program passes.
	ratio, res, err := Speedup("simple.c", simple, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res != 41 || ratio <= 0 {
		t.Errorf("speedup: ratio=%v res=%d", ratio, res)
	}
}

func TestSanitizeForcesO0(t *testing.T) {
	c, err := Compile("simple.c", simple, Config{OOElala: true, Sanitize: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.UBChecks == 0 {
		t.Error("sanitize must insert checks")
	}
	if c.PassStats.LoopsVectorized != 0 || c.PassStats.CallsInlined != 0 {
		t.Error("the paper limits the sanitizer to unoptimized IR")
	}
	r, err := c.Exec(RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Failures) != 0 {
		t.Errorf("clean program flagged: %v", r.Failures)
	}
}

func TestUniqueFinalPredsProvenance(t *testing.T) {
	// An annotation inside a loop that gets unrolled produces clones with
	// shared provenance: final > unique.
	src := `double a[64], b[64];
void k(double *x, double *y, int n) {
  for (int i = 0; i < n; i++) {
    ((x[i] = x[i]) + (y[i] = y[i]));
    x[i] = y[i] * 2.0;
  }
}
int main() { k(a, b, 64); return (int)a[3]; }`
	c, err := Compile("prov.c", src, Config{OOElala: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.UniqueFinalPreds > c.FinalPreds {
		t.Errorf("unique %d > final %d", c.UniqueFinalPreds, c.FinalPreds)
	}
	if c.FinalPreds == 0 {
		t.Error("annotation predicates should survive")
	}
}
