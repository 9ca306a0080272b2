package passes

import (
	"math/rand"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/ooe"
	"repro/internal/parser"
	"repro/internal/sema"
)

// build compiles src and returns the module plus pass statistics.
func build(t *testing.T, src string, emitPreds bool, opts Options) (*ir.Module, Stats) {
	t.Helper()
	tu, perrs := parser.ParseFile("t.c", src, nil)
	for _, e := range perrs {
		t.Fatalf("parse: %v", e)
	}
	for _, e := range sema.Check(tu) {
		t.Fatalf("sema: %v", e)
	}
	an := ooe.New(ooe.Config{}, ooe.FuncMap(tu))
	reports := an.AnalyzeUnit(tu)
	mod, errs := irgen.Generate(tu, reports, irgen.Options{EmitPredicates: emitPreds})
	for _, e := range errs {
		t.Fatalf("irgen: %v", e)
	}
	st, rerr := RunModule(mod, opts, nil)
	if rerr != nil {
		t.Fatalf("RunModule: %v", rerr)
	}
	if problems := mod.Verify(); len(problems) > 0 {
		t.Fatalf("verify after passes: %v\n%s", problems[0], mod)
	}
	return mod, st
}

// run executes main in a fresh machine.
func run(t *testing.T, mod *ir.Module) int64 {
	t.Helper()
	m := interp.New(mod, interp.DefaultCosts())
	v, err := m.RunArgs("main")
	if err != nil {
		t.Fatalf("interp: %v\n%s", err, mod)
	}
	return v
}

// checkSame compiles src at O0 and O3 (with and without unseq-aa) and
// requires identical results.
func checkSame(t *testing.T, src string) int64 {
	t.Helper()
	o0, _ := build(t, src, true, Options{OptLevel: 0})
	want := run(t, o0)
	o3base, _ := build(t, src, false, DefaultOptions())
	if got := run(t, o3base); got != want {
		t.Fatalf("O3 baseline diverges: got %d want %d\n%s", got, want, o3base)
	}
	withOpts := DefaultOptions()
	o3unseq, _ := build(t, src, true, withOpts)
	if got := run(t, o3unseq); got != want {
		t.Fatalf("O3+unseq diverges: got %d want %d\n%s", got, want, o3unseq)
	}
	return want
}

func TestO3PreservesSemanticsBasics(t *testing.T) {
	srcs := []string{
		"int main() { int s = 0; for (int i = 0; i < 50; i++) s += i; return s; }",
		`int main() {
  int a[16];
  for (int i = 0; i < 16; i++) a[i] = i;
  int s = 0;
  for (int i = 0; i < 16; i++) s += a[i] * a[i];
  return s;
}`,
		`int sq(int x) { return x * x; }
int main() { int s = 0; for (int i = 0; i < 10; i++) s += sq(i); return s; }`,
		`int main() {
  int x = 3;
  int y = x > 2 ? 10 : 20;
  int z = (x = 5, x + 1);
  return y + z;
}`,
		`int g = 4;
int main() { g = g * 3 % 7; return g; }`,
	}
	for _, src := range srcs {
		checkSame(t, src)
	}
}

func TestLICMPromotionMinmax(t *testing.T) {
	// The paper's intro example: *min/*max register-allocated across the
	// loop thanks to the unsequenced assignment's must-not-alias facts.
	src := `double a[64];
void minmax(int n, int *min, int *max) {
  *min = *max = 0;
  for (int i = 0; i < n; i++) {
    *min = (a[i] < a[*min]) ? i : *min;
    *max = (a[i] > a[*max]) ? i : *max;
  }
}
int lo, hi;
int main() {
  for (int i = 0; i < 64; i++) a[i] = (double)((i * 37) % 101);
  minmax(64, &lo, &hi);
  return hi * 1000 + lo;
}`
	o0, _ := build(t, src, true, Options{OptLevel: 0})
	want := run(t, o0)

	unseqOpts := DefaultOptions()
	unseqOpts.InlineThreshold = 0 // keep minmax standalone for the stats
	mod, st := build(t, src, true, unseqOpts)
	if got := run(t, mod); got != want {
		t.Fatalf("optimized result differs: got %d want %d", got, want)
	}
	if st.LICMPromoted < 2 {
		t.Errorf("expected *min and *max promoted, got %d promotions\n%s", st.LICMPromoted, mod)
	}

	// Baseline without unseq facts must NOT promote (min/max may alias
	// each other).
	baseOpts := DefaultOptions()
	baseOpts.UseUnseqAA = false
	baseOpts.InlineThreshold = 0
	modBase, stBase := build(t, src, false, baseOpts)
	if got := run(t, modBase); got != want {
		t.Fatalf("baseline optimized result differs: got %d want %d", got, want)
	}
	if stBase.LICMPromoted >= st.LICMPromoted && st.LICMPromoted > 0 {
		t.Errorf("baseline should promote fewer locations: base=%d unseq=%d",
			stBase.LICMPromoted, st.LICMPromoted)
	}
}

func TestDSEWithUnseqFacts(t *testing.T) {
	// getU32-style: intermediate stores to t->mp die only when the loads
	// of *t->mp are known not to alias t->mp itself.
	src := `struct Tiff { unsigned char *mp; };
unsigned char data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
struct Tiff tf;
unsigned int getU32(struct Tiff *t) {
  unsigned int u = 0;
  u = u * 256 + *t->mp++;
  u = u * 256 + *t->mp++;
  u = u * 256 + *t->mp++;
  u = u * 256 + *t->mp++;
  return u;
}
int main() { tf.mp = data; return (int)(getU32(&tf) % 100000); }`
	o0, _ := build(t, src, true, Options{OptLevel: 0})
	want := run(t, o0)
	mod, st := build(t, src, true, DefaultOptions())
	if got := run(t, mod); got != want {
		t.Fatalf("optimized diverges: got %d want %d\n%s", got, want, mod)
	}
	base := DefaultOptions()
	base.UseUnseqAA = false
	_, stBase := build(t, src, false, base)
	if st.StoresDeleted <= stBase.StoresDeleted {
		t.Errorf("unseq facts should enable more DSE: unseq=%d base=%d",
			st.StoresDeleted, stBase.StoresDeleted)
	}
}

func TestVectorizeSimpleMap(t *testing.T) {
	src := `double a[128], b[128], c[128];
int main() {
  for (int i = 0; i < 128; i++) { b[i] = (double)i; c[i] = (double)(i * 2); }
  for (int i = 0; i < 128; i++) a[i] = b[i] * c[i] + 1.0;
  double s = 0.0;
  for (int i = 0; i < 128; i++) s += a[i];
  return (int)s;
}`
	o0, _ := build(t, src, true, Options{OptLevel: 0})
	want := run(t, o0)
	mod, st := build(t, src, true, DefaultOptions())
	if got := run(t, mod); got != want {
		t.Fatalf("vectorized result differs: got %d want %d\n%s", got, want, mod)
	}
	if st.LoopsVectorized == 0 {
		t.Errorf("expected vectorization; stats: %s\n%s", st, mod)
	}
}

func TestVectorizeReduction(t *testing.T) {
	src := `double x[96], y[96];
int main() {
  for (int i = 0; i < 96; i++) { x[i] = (double)(i % 7); y[i] = (double)(i % 5); }
  double dot = 0.0;
  for (int i = 0; i < 96; i++) dot += x[i] * y[i];
  return (int)dot;
}`
	o0, _ := build(t, src, true, Options{OptLevel: 0})
	want := run(t, o0)
	mod, st := build(t, src, true, DefaultOptions())
	if got := run(t, mod); got != want {
		t.Fatalf("reduction result differs: got %d want %d\n%s", got, want, mod)
	}
	if st.LoopsVectorized == 0 {
		t.Errorf("dot-product loop should vectorize; stats %s\n%s", st, mod)
	}
}

func TestVectorizeRequiresNoAlias(t *testing.T) {
	// Same loop through pointer parameters: without CANT_ALIAS the
	// vectorizer must NOT fire (may-alias); with it, it must.
	tmpl := func(annot string) string {
		return `#define CANT_ALIAS2(a,b) ((a = a) & (b = b))
void scale(double *dst, double *src, int n) {
  for (int i = 0; i < n; i++) {
    ` + annot + `
    dst[i] = src[i] * 2.0;
  }
}
double A[64], B[64];
int main() {
  for (int i = 0; i < 64; i++) B[i] = (double)i;
  scale(A, B, 64);
  double s = 0.0;
  for (int i = 0; i < 64; i++) s += A[i];
  return (int)s;
}`
	}
	plain := tmpl("")
	annotated := tmpl("CANT_ALIAS2(dst[i], src[i]);")

	o0, _ := build(t, plain, true, Options{OptLevel: 0})
	want := run(t, o0)

	// Disable inlining: at an inlined call site the compiler would see the
	// global arguments and vectorize legitimately in both configurations.
	opts := DefaultOptions()
	opts.InlineThreshold = 0

	_, stPlain := build(t, plain, true, opts)
	modAnnot, stAnnot := build(t, annotated, true, opts)
	if got := run(t, modAnnot); got != want {
		t.Fatalf("annotated run differs: got %d want %d\n%s", got, want, modAnnot)
	}
	if stAnnot.LoopsVectorized <= stPlain.LoopsVectorized {
		t.Errorf("annotation should enable extra vectorization: plain=%d annotated=%d\n%s",
			stPlain.LoopsVectorized, stAnnot.LoopsVectorized, modAnnot)
	}
}

func TestVersioningGuardCatchesOverlap(t *testing.T) {
	// The annotation promises per-iteration disjointness; calling with
	// overlapping (but per-iteration-distinct) regions must still compute
	// the scalar-exact result thanks to the versioning guard.
	src := `#define CANT_ALIAS2(a,b) ((a = a) & (b = b))
void shift(double *dst, double *src, int n) {
  for (int i = 0; i < n; i++) {
    CANT_ALIAS2(dst[i], src[i]);
    dst[i] = src[i] + 1.0;
  }
}
double A[65];
int main() {
  for (int i = 0; i < 65; i++) A[i] = (double)i;
  shift(A, A + 1, 64); // dst[i] and src[i] differ per iteration, ranges overlap
  double s = 0.0;
  for (int i = 0; i < 65; i++) s += A[i];
  return (int)s;
}`
	o0, _ := build(t, src, true, Options{OptLevel: 0})
	want := run(t, o0)
	mod, _ := build(t, src, true, DefaultOptions())
	if got := run(t, mod); got != want {
		t.Fatalf("versioning guard failed: got %d want %d\n%s", got, want, mod)
	}
}

func TestUnroll(t *testing.T) {
	src := `int a[61];
int main() {
  for (int i = 0; i < 61; i++) a[i] = i * 3;
  int s = 0;
  for (int i = 0; i < 61; i++) s += a[i];
  return s;
}`
	o0, _ := build(t, src, true, Options{OptLevel: 0})
	want := run(t, o0)
	opts := DefaultOptions()
	opts.VectorWidth = 0 // force unrolling instead of vectorization
	mod, st := build(t, src, true, opts)
	if got := run(t, mod); got != want {
		t.Fatalf("unrolled result differs: got %d want %d\n%s", got, want, mod)
	}
	if st.LoopsUnrolled == 0 {
		t.Errorf("expected unrolling, stats: %s", st)
	}
}

func TestInlineSmallFunctions(t *testing.T) {
	src := `int add3(int a, int b, int c) { return a + b + c; }
int main() {
  int s = 0;
  for (int i = 0; i < 10; i++) s = add3(s, i, 1);
  return s;
}`
	o0, _ := build(t, src, true, Options{OptLevel: 0})
	want := run(t, o0)
	mod, st := build(t, src, true, DefaultOptions())
	if got := run(t, mod); got != want {
		t.Fatalf("inlined result differs: got %d want %d\n%s", got, want, mod)
	}
	if st.CallsInlined == 0 {
		t.Errorf("expected inlining, stats: %s", st)
	}
}

func TestMemsetFormation(t *testing.T) {
	// The gcc cfglayout.c pattern: adjacent null stores to two fields.
	src := `struct rtl { long header; long footer; long visited; };
struct rtl r;
int main() {
  r.visited = 9;
  r.header = r.footer = 0;
  return (int)(r.header + r.footer + r.visited);
}`
	o0, _ := build(t, src, true, Options{OptLevel: 0})
	want := run(t, o0)
	mod, st := build(t, src, true, DefaultOptions())
	if got := run(t, mod); got != want {
		t.Fatalf("memset result differs: got %d want %d\n%s", got, want, mod)
	}
	if st.MemsetsFormed == 0 {
		t.Errorf("expected memset formation\n%s", mod)
	}
}

func TestSelectFormation(t *testing.T) {
	src := `int main() {
  int best = -1;
  for (int i = 0; i < 20; i++) {
    int v = (i * 7) % 13;
    best = v > best ? v : best;
  }
  return best;
}`
	o0, _ := build(t, src, true, Options{OptLevel: 0})
	want := run(t, o0)
	mod, _ := build(t, src, true, DefaultOptions())
	if got := run(t, mod); got != want {
		t.Fatalf("select-formed result differs: got %d want %d\n%s", got, want, mod)
	}
}

func TestCSECountsAndIntrinsicUnification(t *testing.T) {
	// After CSE, the annotation's GEPs must be the same values as the
	// access GEPs so unseq-aa facts apply.
	src := `#define CANT_ALIAS2(a,b) ((a = a) & (b = b))
void f(double *p, double *q, int i) {
  CANT_ALIAS2(p[i], q[i]);
  p[i] = q[i] * 2.0;
}
double X[8], Y[8];
int main() { f(X, Y, 3); return (int)X[3]; }`
	mod, st := build(t, src, true, DefaultOptions())
	_ = mod
	if st.CSESimplified == 0 {
		t.Errorf("expected CSE to unify repeated address computations, stats: %s", st)
	}
}

func TestRandomProgramsO0vsO3(t *testing.T) {
	// Differential testing: random small integer programs must compute
	// the same result at O0 and O3 (+unseq).
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		src := randomProgram(rng)
		o0, _ := build(t, src, true, Options{OptLevel: 0})
		want := run(t, o0)
		o3, _ := build(t, src, true, DefaultOptions())
		if got := run(t, o3); got != want {
			t.Fatalf("trial %d diverged: O0=%d O3=%d\nsource:\n%s", trial, want, got, src)
		}
	}
}

// randomProgram emits a small UB-free program mixing loops, arrays, and
// arithmetic.
func randomProgram(rng *rand.Rand) string {
	n := 8 + rng.Intn(24)
	body := ""
	exprs := []string{"i", "i + 1", "i * 2", "a[i] + 1", "a[i] * 3 - i", "(i % 5) * 7"}
	for k := 0; k < 3; k++ {
		e := exprs[rng.Intn(len(exprs))]
		body += "  for (int i = 0; i < N; i++) a[i] = " + e + ";\n"
	}
	acc := []string{"s += a[i];", "s += a[i] * i;", "s = s + a[i] % 11;", "s ^= a[i];"}
	body += "  for (int i = 0; i < N; i++) { " + acc[rng.Intn(len(acc))] + " }\n"
	return "#define N " + itoa(n) + "\nint a[N];\nint main() {\n  int s = 0;\n" + body + "  return s;\n}"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
