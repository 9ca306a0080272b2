package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/driver"
)

// TestFloatToIntEdgeCasesFoldedVsExecuted pins the saturating float→int
// rule end to end: a conversion the optimizer constant-folds (O3) must
// produce the same bits as one the runtime executes (O0), on both
// engines, for every implementation-defined edge (NaN, ±Inf,
// out-of-range magnitudes, and narrowing to i32 after saturation).
func TestFloatToIntEdgeCasesFoldedVsExecuted(t *testing.T) {
	cases := []struct {
		name string
		expr string // initializer for a double variable
		conv string // target integer type
		want string // pinned result as a C expression
	}{
		{"nan-to-long", "zero / zero", "long", "0"},
		{"posinf-to-long", "one / zero", "long", "9223372036854775807"},
		{"neginf-to-long", "-one / zero", "long", "(-9223372036854775807 - 1)"},
		{"huge-to-long", "1e300", "long", "9223372036854775807"},
		{"neghuge-to-long", "-1e300", "long", "(-9223372036854775807 - 1)"},
		{"nan-to-int", "zero / zero", "int", "0"},
		// MaxInt64 truncated to i32 is -1; MinInt64 truncates to 0.
		{"posinf-to-int", "one / zero", "int", "-1"},
		{"neginf-to-int", "-one / zero", "int", "0"},
		{"inrange", "123.75", "long", "123"},
		{"neg-inrange", "-123.75", "long", "-123"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			src := fmt.Sprintf(`double zero = 0.0, one = 1.0;
long check() {
  double v = %s;
  return (%s)v;
}
int main() { return check() == %s ? 1 : 0; }
`, c.expr, c.conv, c.want)
			var results []int64
			for _, opt := range []bool{false, true} {
				cc, err := driver.Compile(c.name, src, driver.Config{NoOpt: !opt})
				if err != nil {
					t.Fatalf("opt=%v compile: %v", opt, err)
				}
				for _, eng := range []string{driver.EngineTree, driver.EngineVM} {
					r, err := cc.Exec(driver.RunOpts{Engine: eng})
					if err != nil {
						t.Fatalf("opt=%v engine=%s run: %v", opt, eng, err)
					}
					results = append(results, r.Value)
				}
			}
			for i, r := range results {
				if r != 1 {
					t.Fatalf("leg %d: edge value diverged from pinned result (%s)", i, c.name)
				}
			}
		})
	}
}
