package irgen

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/ooe"
	"repro/internal/parser"
	"repro/internal/sema"
)

// compile parses, checks, analyzes, and lowers src.
func compile(t *testing.T, src string, opts Options) *ir.Module {
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
	mod, errs := Generate(tu, reports, opts)
	for _, e := range errs {
		t.Fatalf("irgen: %v", e)
	}
	if problems := mod.Verify(); len(problems) > 0 {
		t.Fatalf("verify: %v\n%s", problems[0], mod)
	}
	return mod
}

// runMain compiles and executes main, returning the result.
func runMain(t *testing.T, src string) int64 {
	t.Helper()
	mod := compile(t, src, Options{EmitPredicates: true})
	m := interp.New(mod, interp.DefaultCosts())
	v, err := m.RunArgs("main")
	if err != nil {
		t.Fatalf("interp: %v\n%s", err, mod)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	if got := runMain(t, "int main() { return 2 + 3 * 4; }"); got != 14 {
		t.Errorf("got %d", got)
	}
}

func TestLocalsAndAssign(t *testing.T) {
	if got := runMain(t, "int main() { int x = 5; x += 3; x *= 2; return x; }"); got != 16 {
		t.Errorf("got %d", got)
	}
}

func TestIncDec(t *testing.T) {
	if got := runMain(t, "int main() { int i = 5; int a = i++; int b = ++i; return a * 100 + b * 10 + i; }"); got != 577 {
		t.Errorf("got %d", got)
	}
}

func TestLoops(t *testing.T) {
	if got := runMain(t, `int main() {
  int s = 0;
  for (int i = 1; i <= 10; i++) s += i;
  int j = 0;
  while (j < 5) j++;
  int k = 0;
  do { k++; } while (k < 3);
  return s + j + k;
}`); got != 63 {
		t.Errorf("got %d", got)
	}
}

func TestArraysAndPointers(t *testing.T) {
	if got := runMain(t, `int main() {
  int a[8];
  for (int i = 0; i < 8; i++) a[i] = i * i;
  int *p = a + 3;
  return a[2] + *p + p[1];
}`); got != 29 {
		t.Errorf("got %d", got)
	}
}

func TestGlobalsAndInit(t *testing.T) {
	if got := runMain(t, `int g = 7;
int tab[4] = {1, 2, 3, 4};
int main() { g += tab[2]; return g; }`); got != 10 {
		t.Errorf("got %d", got)
	}
}

func TestStructs(t *testing.T) {
	if got := runMain(t, `struct P { int x; int y; };
struct K { struct P pos; double w; };
int main() {
  struct K k;
  k.pos.x = 3; k.pos.y = 4;
  k.w = 2.5;
  struct K *pk = &k;
  pk->pos.x += 1;
  return k.pos.x * k.pos.y + (int)(k.w * 2.0);
}`); got != 21 {
		t.Errorf("got %d", got)
	}
}

func TestCallsAndRecursion(t *testing.T) {
	if got := runMain(t, `int fib(int n) { return n < 2 ? n : fib(n-1) + fib(n-2); }
int main() { return fib(10); }`); got != 55 {
		t.Errorf("got %d", got)
	}
}

func TestShortCircuit(t *testing.T) {
	if got := runMain(t, `int g = 0;
int bump() { g++; return 1; }
int main() {
  int a = (0 && bump());
  int b = (1 || bump());
  int c = (1 && bump());
  return g * 100 + a * 10 + b + c;
}`); got != 102 {
		t.Errorf("got %d", got)
	}
}

func TestTernary(t *testing.T) {
	if got := runMain(t, "int main() { int x = 5; return x > 3 ? x * 2 : x - 1; }"); got != 10 {
		t.Errorf("got %d", got)
	}
}

func TestSwitchLowering(t *testing.T) {
	if got := runMain(t, `int f(int x) {
  int r = 0;
  switch (x) {
  case 1: r = 10; break;
  case 2: r = 20; break;
  default: r = 99;
  }
  return r;
}
int main() { return f(1) + f(2) + f(5); }`); got != 129 {
		t.Errorf("got %d", got)
	}
}

func TestDoubles(t *testing.T) {
	if got := runMain(t, `double fabs(double);
int main() {
  double d = -2.5;
  double e = fabs(d) * 4.0;
  return (int)e;
}`); got != 10 {
		t.Errorf("got %d", got)
	}
}

func TestUnsignedWrap(t *testing.T) {
	if got := runMain(t, `int main() {
  unsigned char c = 250;
  c += 10;
  return c;
}`); got != 4 {
		t.Errorf("got %d", got)
	}
}

func TestIndirectCalls(t *testing.T) {
	if got := runMain(t, `int twice(int x) { return 2 * x; }
int main() {
  int (*f)(int) = twice;
  return f(21);
}`); got != 42 {
		t.Errorf("got %d", got)
	}
}

func TestPointerIncDeref(t *testing.T) {
	// The x264 getU32 pattern: *t->mp++ four times.
	if got := runMain(t, `struct Tiff { unsigned char *mp; };
unsigned char data[4] = {1, 2, 3, 4};
int main() {
  struct Tiff t;
  t.mp = data;
  int a = *t.mp++;
  int b = *t.mp++;
  int c = *t.mp++;
  int d = *t.mp++;
  return a * 1000 + b * 100 + c * 10 + d;
}`); got != 1234 {
		t.Errorf("got %d", got)
	}
}

func TestMustNotAliasEmitted(t *testing.T) {
	mod := compile(t, `void f(int *p, int *q) { *p = (*q = 1) + 1; }`, Options{EmitPredicates: true})
	count := 0
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpMustNotAlias {
					count++
				}
			}
		}
	}
	if count == 0 {
		t.Errorf("expected mustnotalias intrinsics:\n%s", mod)
	}
}

func TestNoPredicatesWithoutFlag(t *testing.T) {
	mod := compile(t, `void f(int *p, int *q) { *p = (*q = 1) + 1; }`, Options{})
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpMustNotAlias || in.Op == ir.OpUBCheck {
					t.Fatalf("intrinsic emitted without flag: %s", in)
				}
			}
		}
	}
}

func TestUBCheckEmittedAndFires(t *testing.T) {
	src := `int run(int *p, int *q) { *p = (*q = 1) + 1; return 0; }
int x, y;
int main() { run(&x, &y); return 0; }`
	mod := compile(t, src, Options{Sanitize: true})
	found := false
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpUBCheck {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatalf("no ubcheck emitted:\n%s", mod)
	}
	// Distinct pointers: no failure.
	m := interp.New(mod, interp.DefaultCosts())
	if _, err := m.RunArgs("main"); err != nil {
		t.Fatal(err)
	}
	if len(m.SanFailures) != 0 {
		t.Errorf("unexpected sanitizer failure: %v", m.SanFailures[0])
	}
	// Aliased pointers: the check fires.
	src2 := `int run(int *p, int *q) { *p = (*q = 1) + 1; return 0; }
int x;
int main() { run(&x, &x); return 0; }`
	mod2 := compile(t, src2, Options{Sanitize: true})
	m2 := interp.New(mod2, interp.DefaultCosts())
	if _, err := m2.RunArgs("main"); err != nil {
		t.Fatal(err)
	}
	if len(m2.SanFailures) == 0 {
		t.Error("sanitizer should have caught the aliasing violation")
	}
}

func TestReadNonePropagated(t *testing.T) {
	mod := compile(t, `int pureAdd(int a, int b) { return a + b; }
int g;
int impure() { return g++; }
int main() { return pureAdd(1, 2) + impure(); }`, Options{})
	if f := mod.FindFunc("pureAdd"); f == nil || !f.ReadNone {
		t.Error("pureAdd should be readnone")
	}
	if f := mod.FindFunc("impure"); f == nil || f.ReadNone {
		t.Error("impure must not be readnone")
	}
}

func TestCyclesAccumulate(t *testing.T) {
	mod := compile(t, `int main() {
  int s = 0;
  for (int i = 0; i < 100; i++) s += i;
  return s;
}`, Options{})
	m := interp.New(mod, interp.DefaultCosts())
	if _, err := m.RunArgs("main"); err != nil {
		t.Fatal(err)
	}
	if m.MilliCycles() <= 0 || m.Executed <= 0 {
		t.Errorf("cost accounting broken: cycles=%v executed=%d", m.TotalCycles(), m.Executed)
	}
}

func TestCommaAndCompoundInOneExpr(t *testing.T) {
	if got := runMain(t, `int main() {
  int i = 0, j = 0;
  int r = (i = 3, j = 4, i * j);
  return r;
}`); got != 12 {
		t.Errorf("got %d", got)
	}
}

func TestStringLiteral(t *testing.T) {
	if got := runMain(t, `int main() {
  char *s = "AB";
  return s[0] + s[1];
}`); got != 131 {
		t.Errorf("got %d", got)
	}
}

func TestImagickPatternCompiles(t *testing.T) {
	src := `struct kern { long x, y; double positive_range; double values[64]; };
struct args_t { double sigma; };
double fabs(double);
double MagickMax(double a, double b) { return a > b ? a : b; }
struct kern K;
struct args_t A;
int main() {
  int i; long u, v;
  K.x = 2; K.y = 2; A.sigma = 1.5;
  for (i = 0, v = -K.y; v <= K.y; v++)
    for (u = -K.x; u <= K.x; u++, i++)
      K.positive_range += (K.values[i] =
        A.sigma * MagickMax(fabs((double)u), fabs((double)v)));
  return (int)K.positive_range;
}`
	got := runMain(t, src)
	// Sum over u,v in [-2,2] of 1.5*max(|u|,|v|): ring values 1.5*(8*1? )
	// compute: entries: max(|u|,|v|) matrix 5x5 = [2 2 2 2 2;2 1 1 1 2;
	// 2 1 0 1 2; 2 1 1 1 2; 2 2 2 2 2] sum=16*2+8*1=40 -> 1.5*40=60.
	if got != 60 {
		t.Errorf("got %d want 60", got)
	}
	_ = ast.ExprString
}

func TestSwitchFallthrough(t *testing.T) {
	if got := runMain(t, `int f(int x) {
  int r = 0;
  switch (x) {
  case 1: r += 1;
  case 2: r += 10; break;
  case 3: r += 100;
  default: r += 1000;
  }
  return r;
}
int main() { return f(1) + f(2) + f(3) + f(9); }`); got != 11+10+1100+1000 {
		t.Errorf("fallthrough got %d", got)
	}
}

func TestNestedBreakContinue(t *testing.T) {
	if got := runMain(t, `int main() {
  int s = 0;
  for (int i = 0; i < 6; i++) {
    for (int j = 0; j < 6; j++) {
      if (j == 3) break;
      if (j == 1) continue;
      s += i * 10 + j;
    }
  }
  return s;
}`); got != 312 {
		t.Errorf("got %d", got)
	}
}

func TestUnsignedComparisonEndToEnd(t *testing.T) {
	if got := runMain(t, `int main() {
  unsigned int big = 3000000000u;
  unsigned int small = 5;
  int lt = small < big;        /* unsigned compare: true */
  int wrap = (int)(big + big > big); /* wraps below big: false */
  return lt * 10 + wrap;
}`); got != 10 {
		t.Errorf("got %d", got)
	}
}

func TestUCharIndexSemantics(t *testing.T) {
	// The xz-delta pattern: (unsigned char) casts must produce [0,255]
	// indices, never negative ones.
	if got := runMain(t, `unsigned char hist[256];
int main() {
  unsigned char pos = 10;
  unsigned char d = 250;
  hist[(unsigned char)(d + pos)] = 77; /* 260 wraps to 4 */
  return hist[4];
}`); got != 77 {
		t.Errorf("uchar wrap index broken: %d", got)
	}
}

func TestDoWhileWithDecrementCond(t *testing.T) {
	if got := runMain(t, `int main() {
  int n = 4, s = 0;
  do { s += n; } while (--n);
  return s;
}`); got != 10 {
		t.Errorf("got %d", got)
	}
}

func TestGlobalPointerInit(t *testing.T) {
	if got := runMain(t, `int x = 7;
int main() {
  int *p = &x;
  *p += 1;
  return x;
}`); got != 8 {
		t.Errorf("got %d", got)
	}
}
