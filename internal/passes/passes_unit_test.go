package passes

import (
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
)

// countOps tallies instructions of one opcode across the module.
func countOps(mod *ir.Module, op ir.Op) int {
	n := 0
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == op {
					n++
				}
			}
		}
	}
	return n
}

func TestMem2RegPromotesParams(t *testing.T) {
	mod, _ := build(t, "int add(int a, int b) { return a + b; } int main() { return add(2, 3); }",
		false, DefaultOptions())
	// After mem2reg (+ inlining may remove add entirely), main's IR must
	// not round-trip the parameters through memory.
	f := mod.FindFunc("main")
	if f == nil {
		t.Fatal("main missing")
	}
	if got := run(t, mod); got != 5 {
		t.Fatalf("result %d", got)
	}
}

func TestMem2RegSkipsAddressTaken(t *testing.T) {
	src := `void set(int *p) { *p = 9; }
int main() { int x = 1; set(&x); return x; }`
	mod, _ := build(t, src, false, DefaultOptions())
	if got := run(t, mod); got != 9 {
		t.Fatalf("address-taken local mis-promoted: %d", got)
	}
}

func TestDSEKeepsObservableStores(t *testing.T) {
	src := `int g;
int peek() { return g; }
int main() {
  g = 1;
  int a = peek();
  g = 2;
  return a * 10 + peek();
}`
	mod, _ := build(t, src, false, DefaultOptions())
	if got := run(t, mod); got != 12 {
		t.Fatalf("DSE removed an observable store: %d", got)
	}
}

func TestDSEKillsAdjacentDeadStores(t *testing.T) {
	src := `int g;
int main() {
  g = 1;
  g = 2;
  g = 3;
  return g;
}`
	mod, st := build(t, src, false, DefaultOptions())
	if got := run(t, mod); got != 3 {
		t.Fatalf("result %d", got)
	}
	if st.StoresDeleted < 2 && countOps(mod, ir.OpStore) > 1 {
		t.Errorf("dead stores survived: deleted=%d stores=%d", st.StoresDeleted, countOps(mod, ir.OpStore))
	}
}

func TestInlineSkipsRecursive(t *testing.T) {
	src := `int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); }
int main() { return fact(5); }`
	mod, _ := build(t, src, false, DefaultOptions())
	if mod.FindFunc("fact") == nil {
		t.Error("recursive function must not be deleted")
	}
	if got := run(t, mod); got != 120 {
		t.Fatalf("result %d", got)
	}
}

func TestInlineThresholdRespected(t *testing.T) {
	var body strings.Builder
	for i := 0; i < 60; i++ {
		body.WriteString("  x = x * 3 + 1;\n  x = x ^ (x >> 2);\n")
	}
	src := "int big(int x) {\n" + body.String() + "  return x;\n}\nint main() { return big(3) & 0xFF; }"
	opts := DefaultOptions()
	opts.InlineThreshold = 10
	mod, st := build(t, src, false, opts)
	if st.CallsInlined != 0 {
		t.Errorf("function above the threshold was inlined")
	}
	if mod.FindFunc("big") == nil {
		t.Error("big must survive")
	}
	run(t, mod)
}

func TestMemcpyOptNeedsSameValue(t *testing.T) {
	// Different stored constants must NOT merge into a memset.
	src := `struct R { long a; long b; };
struct R r;
int main() {
  r.a = 1;
  r.b = 2;
  return (int)(r.a + r.b);
}`
	mod, st := build(t, src, false, DefaultOptions())
	if st.MemsetsFormed != 0 {
		t.Errorf("memset formed over differing values")
	}
	if got := run(t, mod); got != 3 {
		t.Fatalf("result %d", got)
	}
}

func TestMemcpyOptContiguity(t *testing.T) {
	// A gap in the covered range must block merging.
	src := `struct R { long a; long gap; long b; };
struct R r;
int main() {
  r.gap = 7;
  r.a = 0;
  r.b = 0;
  return (int)(r.a + r.gap + r.b);
}`
	mod, st := build(t, src, false, DefaultOptions())
	_ = st // merging a and b would clobber gap
	if got := run(t, mod); got != 7 {
		t.Fatalf("gap clobbered: %d", got)
	}
}

func TestSimplifyCFGFoldsConstantBranch(t *testing.T) {
	src := `int main() {
  int r = 0;
  if (1) r = 5; else r = 9;
  return r;
}`
	mod, _ := build(t, src, false, DefaultOptions())
	f := mod.FindFunc("main")
	if len(f.Blocks) != 1 {
		t.Errorf("constant branch should collapse main to one block, got %d\n%s", len(f.Blocks), f)
	}
	if got := run(t, mod); got != 5 {
		t.Fatalf("result %d", got)
	}
}

func TestDCERemovesDeadChain(t *testing.T) {
	src := `int main() {
  int dead1 = 5;
  int dead2 = dead1 * 3;
  int dead3 = dead2 + dead1;
  return 7;
}`
	mod, _ := build(t, src, false, DefaultOptions())
	f := mod.FindFunc("main")
	// After optimization main should be (near) minimal: ret 7.
	if n := f.NumInstrs(); n > 2 {
		t.Errorf("dead chain survived: %d instrs\n%s", n, f)
	}
	if got := run(t, mod); got != 7 {
		t.Fatalf("result %d", got)
	}
}

func TestNoopStoreElimination(t *testing.T) {
	// The CANT_ALIAS residue: store p, (load p).
	src := `int g;
int main() {
  g = g;
  g = g;
  g = 4;
  return g;
}`
	mod, _ := build(t, src, false, DefaultOptions())
	if got := run(t, mod); got != 4 {
		t.Fatalf("result %d", got)
	}
	if n := countOps(mod, ir.OpStore); n > 1 {
		t.Errorf("no-op stores survived: %d", n)
	}
}

func TestUnrollPreservesShortTrips(t *testing.T) {
	// Trip counts below the unroll factor must still compute correctly
	// (the remainder loop handles everything).
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7} {
		src := "int main() { int s = 0; for (int i = 0; i < " +
			itoa(n) + "; i++) s += i + 1; return s; }"
		want := int64(n * (n + 1) / 2)
		mod, _ := build(t, src, false, DefaultOptions())
		if got := run(t, mod); got != want {
			t.Errorf("n=%d: got %d want %d", n, got, want)
		}
	}
}

func TestVectorizeShortTrips(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 5, 8, 9} {
		src := `double a[16], b[16];
int main() {
  for (int i = 0; i < 16; i++) b[i] = (double)i;
  for (int i = 0; i < ` + itoa(n) + `; i++) a[i] = b[i] * 3.0;
  double s = 0.0;
  for (int i = 0; i < 16; i++) s += a[i];
  return (int)s;
}`
		want := int64(3 * (n * (n - 1) / 2))
		mod, _ := build(t, src, true, DefaultOptions())
		if got := run(t, mod); got != want {
			t.Errorf("n=%d: got %d want %d", n, got, want)
		}
	}
}

// TestPipelineIdempotent: running the pipeline twice must not change the
// result (fixed-point sanity).
func TestPipelineIdempotent(t *testing.T) {
	src := `double a[32], b[32];
int main() {
  for (int i = 0; i < 32; i++) b[i] = (double)(i % 5);
  double s = 0.0;
  for (int i = 0; i < 32; i++) s += b[i] * 2.0;
  return (int)s;
}`
	mod, _ := build(t, src, true, DefaultOptions())
	before := run(t, mod)
	if _, err := RunModule(mod, DefaultOptions(), nil); err != nil {
		t.Fatalf("second RunModule: %v", err)
	}
	if problems := mod.Verify(); len(problems) > 0 {
		t.Fatalf("second pipeline run broke the IR: %v", problems[0])
	}
	after := run(t, mod)
	if before != after {
		t.Errorf("pipeline not idempotent: %d vs %d", before, after)
	}
}

// TestCyclesDeterministic: the simulated cycle count is a pure function
// of the module.
func TestCyclesDeterministic(t *testing.T) {
	src := `int main() { int s = 0; for (int i = 0; i < 40; i++) s += i; return s; }`
	mod, _ := build(t, src, true, DefaultOptions())
	m1 := interp.New(mod, interp.DefaultCosts())
	m2 := interp.New(mod, interp.DefaultCosts())
	if _, err := m1.RunArgs("main"); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.RunArgs("main"); err != nil {
		t.Fatal(err)
	}
	if m1.MilliCycles() != m2.MilliCycles() {
		t.Errorf("cycles differ: %d vs %d", m1.MilliCycles(), m2.MilliCycles())
	}
}
