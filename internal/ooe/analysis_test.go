package ooe

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/sema"
)

// analyze parses src (a full translation unit), runs sema, and analyzes
// the first full expression of the function named fn.
func analyze(t *testing.T, src, fn string, cfg Config) (*Analyzer, *Result) {
	t.Helper()
	a, rs := analyzeAll(t, src, fn, cfg)
	if len(rs) == 0 {
		t.Fatal("no full expressions")
	}
	return a, rs[0]
}

func analyzeAll(t *testing.T, src, fn string, cfg Config) (*Analyzer, []*Result) {
	t.Helper()
	tu, perrs := parser.ParseFile("test.c", src, nil)
	for _, e := range perrs {
		t.Fatalf("parse: %v", e)
	}
	for _, e := range sema.Check(tu) {
		t.Fatalf("sema: %v", e)
	}
	a := New(cfg, FuncMap(tu))
	var f *ast.FuncDecl
	for _, fd := range tu.Funcs {
		if fd.Name == fn {
			f = fd
		}
	}
	if f == nil {
		t.Fatalf("function %s not found", fn)
	}
	var rs []*Result
	for _, e := range ast.FullExprs(f.Body) {
		rs = append(rs, a.AnalyzeExpr(e))
		for _, c := range []Config{{}, {AssumeAllCallsImpure: true}, {NoGammaClear: true}, {KeepBitfieldPredicates: true}} {
			if err := CheckOracle(New(c, a.funcs), e); err != nil {
				t.Errorf("%+v: %v", c, err)
			}
		}
	}
	return a, rs
}

// judgement returns the sets of sub-expression id (empty when it has none).
func judgement(r *Result, id int) Sets {
	s, _ := r.Sets(id)
	return s
}

// names maps the sorted elements of an ID set to their printed expression
// text, for readable assertions.
func names(r *Result, s IDSet) []string {
	var out []string
	for _, id := range s.Sorted() {
		out = append(out, ast.ExprString(r.Expr(id)))
	}
	return out
}

func pairNames(r *Result, s PairSet) []string {
	var out []string
	for _, p := range s.Sorted() {
		a, b := ast.ExprString(r.Expr(p.A)), ast.ExprString(r.Expr(p.B))
		if a > b {
			a, b = b, a
		}
		out = append(out, a+"|"+b)
	}
	return out
}

func wantSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	g, w := strings.Join(got, " "), strings.Join(want, " ")
	if g != w {
		t.Errorf("%s: got [%s] want [%s]", what, g, w)
	}
}

// TestTable2Sets reproduces the paper's Table 2: the ω, θ, γ, π sets for
// the full expression *min = *max = a[0].
func TestTable2Sets(t *testing.T) {
	src := `double a[16];
void f(double *min, double *max) { *min = *max = a[0]; }`
	_, r := analyze(t, src, "f", Config{})
	root := sema.Strip(r.Root)
	s := judgement(r, root.ID())

	// Paper row 8: ω = {a[0], max, min}, θ = {*max, *min}, γ = {*max, *min},
	// π = {(*max,*min), (*max,min)}.
	wantSet(t, "omega", names(r, s.Omega), []string{"min", "max", "a[0]"})
	wantSet(t, "theta", names(r, s.Theta), []string{"*min", "*max"})
	wantSet(t, "gamma", names(r, s.Gamma), []string{"*min", "*max"})
	wantSet(t, "pi", pairNames(r, s.Pi), []string{"*max|min", "*max|*min"})

	// Paper row 5: the inner assignment *max = a[0].
	inner := sema.Strip(root.(*ast.Assign).R)
	si := judgement(r, inner.ID())
	wantSet(t, "inner omega", names(r, si.Omega), []string{"max", "a[0]"})
	wantSet(t, "inner theta", names(r, si.Theta), []string{"*max"})
	wantSet(t, "inner gamma", names(r, si.Gamma), []string{"*max"})
	if len(si.Pi) != 0 {
		t.Errorf("inner pi should be empty, got %v", pairNames(r, si.Pi))
	}

	// Paper rows 0-2: array subscript a[0] generates nothing by itself
	// (a is an array lvalue, excluded by ∇; decay is charged to the
	// consumer).
	idx := sema.Strip(inner.(*ast.Assign).R)
	sx := judgement(r, idx.ID())
	if len(sx.Omega)+len(sx.Theta)+len(sx.Gamma)+len(sx.Pi) != 0 {
		t.Errorf("a[0] sets should all be empty: ω=%v θ=%v", names(r, sx.Omega), names(r, sx.Theta))
	}
}

// TestTable3CounterExample: with the impure-fun-call override, the
// expression (a = 1) + *foo() must generate NO predicates, because foo is
// impure and pairing a's side effect with *foo()'s read would be unsound.
func TestTable3CounterExample(t *testing.T) {
	src := `int a = 0, b = 2;
int *foo() {
  if (a == 1) return &a;
  else return &b;
}
int main() { return (a = 1) + *foo(); }`
	a, r := analyze(t, src, "main", Config{})
	preds := a.Predicates(r)
	if len(preds) != 0 {
		t.Fatalf("impure-fun-call override must suppress predicates, got %v", preds)
	}
}

// TestTable3WithoutOverride documents that the base Fig. 1 rules *would*
// produce the unsound pair — the override is what suppresses it. We
// simulate "no override" by making foo pure-by-construction impossible;
// instead we check that a PURE callee in the same shape does yield the
// pair (sound per Theorem 3.3).
func TestPureCallAllowsPredicates(t *testing.T) {
	src := `int a = 0;
int pick(int x) { return x + 1; }
void f(int *p) { a = pick(1) + (*p = 2); }`
	an, r := analyze(t, src, "f", Config{})
	preds := an.Predicates(r)
	// a's write and *p's write are unsequenced; pick is pure so the
	// predicate survives.
	found := false
	for _, p := range preds {
		s := p.String()
		if strings.Contains(s, "a") && strings.Contains(s, "*p") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected must-not-alias(a, *p); got %v", preds)
	}
}

// TestSection25Example1: i = ++i + 1 — the analysis generates a pair
// (i, i) of distinct sub-expression occurrences of the same variable,
// which can never be satisfied: this expression is statically UB.
func TestSection25Example1(t *testing.T) {
	_, r := analyze(t, "void f(int i) { i = ++i + 1; }", "f", Config{})
	root := sema.Strip(r.Root)
	s := judgement(r, root.ID())
	wantSet(t, "pi", pairNames(r, s.Pi), []string{"i|i"})
}

// TestSection25Example2: a[i++] = i — the read of i on the RHS is
// unsequenced with the side effect on i: pair (i, i).
func TestSection25Example2(t *testing.T) {
	_, r := analyze(t, "void f(int a[8], int i) { a[i++] = i; }", "f", Config{})
	root := sema.Strip(r.Root)
	s := judgement(r, root.ID())
	got := pairNames(r, s.Pi)
	hasII := false
	for _, p := range got {
		if p == "i|i" {
			hasII = true
		}
	}
	if !hasII {
		t.Errorf("expected (i,i) pair, got %v", got)
	}
}

// TestSection25Example3: i = i + 1 is well-defined: no pairs.
func TestSection25Example3(t *testing.T) {
	_, r := analyze(t, "void f(int i) { i = i + 1; }", "f", Config{})
	s := judgement(r, sema.Strip(r.Root).ID())
	if len(s.Pi) != 0 {
		t.Errorf("i = i + 1 must produce no pairs, got %v", pairNames(r, s.Pi))
	}
}

// TestSection25Example4: a[i] = i has no side effect on i: no pairs.
func TestSection25Example4(t *testing.T) {
	_, r := analyze(t, "void f(int a[8], int i) { a[i] = i; }", "f", Config{})
	s := judgement(r, sema.Strip(r.Root).ID())
	if len(s.Pi) != 0 {
		t.Errorf("a[i] = i must produce no pairs, got %v", pairNames(r, s.Pi))
	}
}

// TestSection25Example5: *p = ++i + 1 — must-not-alias(*p, i). Fig. 1
// additionally infers must-not-alias(p, i): computing the lvalue *p reads
// the pointer p, which is unsequenced with the side effect on i.
func TestSection25Example5(t *testing.T) {
	_, r := analyze(t, "void f(int *p, int i) { *p = ++i + 1; }", "f", Config{})
	s := judgement(r, sema.Strip(r.Root).ID())
	wantSet(t, "pi", pairNames(r, s.Pi), []string{"i|p", "*p|i"})
}

// TestSection25Example6: a[i++] = *p — must-not-alias pairs between i's
// side effect and *p's read, and i's side effect and a[i++]'s... the
// key fact: (i, *p) is inferred.
func TestSection25Example6(t *testing.T) {
	_, r := analyze(t, "void f(int a[8], int *p, int i) { a[i++] = *p; }", "f", Config{})
	s := judgement(r, sema.Strip(r.Root).ID())
	got := pairNames(r, s.Pi)
	foundIP := false
	for _, p := range got {
		if p == "*p|i" || p == "i|*p" {
			foundIP = true
		}
	}
	if !foundIP {
		t.Errorf("expected (i, *p) pair, got %v", got)
	}
}

// TestIntroMinmax: the paper's introduction example — *min and *max
// updated in two expression statements... the actual inference there
// comes from the single full expression *min=(a[i]<*min)?i:*min having no
// race, but the motivating inference is on the combined idiom. Here we
// exercise the CANT_ALIAS-style inference on the conditional-assignment
// form used in the paper:
// *max = (a[i] > *max) ? i : *max together with *min in one expression
// via the comma operator would sequence them. The paper's actual lowering
// uses two separate statements with the key pattern *min = ... ; we test
// the kernel annotated form instead.
func TestCantAliasMacro(t *testing.T) {
	src := `#define CANT_ALIAS2(a,b) ((a = a) & (b = b))
void f(double *p, double *q) { CANT_ALIAS2(*p, *q); }`
	an, r := analyze(t, src, "f", Config{})
	preds := an.Predicates(r)
	found := false
	for _, p := range preds {
		s := p.String()
		if strings.Contains(s, "*p") && strings.Contains(s, "*q") {
			found = true
		}
	}
	if !found {
		t.Errorf("CANT_ALIAS must yield must-not-alias(*p,*q), got %v", preds)
	}
}

// TestCantAlias5 matches the paper's 5-argument macro used on Polybench
// bicg: all argument pairs become must-not-alias.
func TestCantAlias5(t *testing.T) {
	src := `#define CANT_ALIAS(a,b,c,d,e) ((a = a) & (b = b) & (c = c) & (d = d) & (e = e))
void f(double *s, double *r, double *A, double *q, double *p) {
  CANT_ALIAS(*s, *r, *A, *q, *p);
}`
	an, r := analyze(t, src, "f", Config{})
	preds := an.Predicates(r)
	// 5 distinct scalars -> C(5,2) = 10 write-write pairs at minimum;
	// read-vs-write pairs add more but between the same lvalue
	// occurrences (each arg appears as both read and write) — count
	// distinct variable pairs.
	distinct := map[string]bool{}
	for _, p := range preds {
		a := ast.ExprString(p.E1)
		b := ast.ExprString(p.E2)
		if a > b {
			a, b = b, a
		}
		distinct[a+"|"+b] = true
	}
	// All C(5,2)=10 dereference pairs must be present (plus pointer-read
	// pairs like p|*q, which are also sound).
	vars := []string{"*s", "*r", "*A", "*q", "*p"}
	for i := 0; i < len(vars); i++ {
		for j := i + 1; j < len(vars); j++ {
			a, b := vars[i], vars[j]
			if a > b {
				a, b = b, a
			}
			if !distinct[a+"|"+b] {
				t.Errorf("missing pair %s|%s", a, b)
			}
		}
	}
}

// TestImagickKernelPattern: the intro's second example. The compound
// assignment's side effect on kernel->positive_range is unsequenced with
// the nested write to kernel->values[i]: must-not-alias.
func TestImagickKernelPattern(t *testing.T) {
	src := `struct kern { long x, y; double positive_range; double values[128]; };
struct args_t { double sigma; };
double fabs(double);
double MagickMax(double a, double b) { return a > b ? a : b; }
void init(struct kern *kernel, struct args_t *args, int i, long u, long v) {
  kernel->positive_range += (kernel->values[i] =
    args->sigma * MagickMax(fabs((double)u), fabs((double)v)));
}`
	an, r := analyze(t, src, "init", Config{})
	preds := an.Predicates(r)
	found := false
	for _, p := range preds {
		s := p.String()
		if strings.Contains(s, "positive_range") && strings.Contains(s, "values[i]") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected must-not-alias(kernel->positive_range, kernel->values[i]); got %v", preds)
	}
}

// TestCommaSequencing: (i--, j) + i — γ of the comma's left operand is
// cleared, but the pair (i, i) arises anyway because the right operand of
// + reads i while i-- is pending in at least one evaluation (the paper's
// section 2.5 discussion). Fig. 1: at the + operator, θ of the left
// operand {i} is paired with the decay read of the right operand {i}.
func TestCommaExposesTheta(t *testing.T) {
	_, r := analyze(t, "void f(int i, int j) { (i--, j) + i; }", "f", Config{})
	s := judgement(r, sema.Strip(r.Root).ID())
	wantSet(t, "pi", pairNames(r, s.Pi), []string{"i|i"})
}

// TestCommaClearsGamma: after a comma, the left side effect is no longer
// pending: (i--, i) is well-defined (γ cleared), so the judgement's γ
// only holds the right side.
func TestCommaClearsGamma(t *testing.T) {
	_, r := analyze(t, "void f(int i, int j) { (i--, j--); }", "f", Config{})
	s := judgement(r, sema.Strip(r.Root).ID())
	wantSet(t, "gamma", names(r, s.Gamma), []string{"j"})
	wantSet(t, "theta", names(r, s.Theta), []string{"i", "j"})
	if len(s.Pi) != 0 {
		t.Errorf("sequenced side effects must not pair: %v", pairNames(r, s.Pi))
	}
}

// TestLogicalClearsGamma: && and || clear γ and only the left operand
// contributes (the right may not execute).
func TestLogicalClearsGamma(t *testing.T) {
	_, r := analyze(t, "void f(int i, int j) { i-- && j--; }", "f", Config{})
	s := judgement(r, sema.Strip(r.Root).ID())
	if len(s.Gamma) != 0 {
		t.Errorf("γ must be empty after &&, got %v", names(r, s.Gamma))
	}
	wantSet(t, "theta", names(r, s.Theta), []string{"i"})
	wantSet(t, "omega", names(r, s.Omega), []string{"i"})
}

// TestTernaryOnlyCondition: the arms of ?: may not evaluate; only the
// condition contributes.
func TestTernaryOnlyCondition(t *testing.T) {
	_, r := analyze(t, "void f(int c, int i, int j) { c-- ? i-- : j--; }", "f", Config{})
	s := judgement(r, sema.Strip(r.Root).ID())
	wantSet(t, "theta", names(r, s.Theta), []string{"c"})
	if len(s.Gamma) != 0 {
		t.Errorf("γ must be cleared by ?:, got %v", names(r, s.Gamma))
	}
}

// TestFunCallPairsArguments: arguments are mutually unsequenced; writes
// in different arguments pair up.
func TestFunCallPairsArguments(t *testing.T) {
	src := `int g2(int a, int b) { return a + b; }
void f(int *p, int *q) { g2(*p = 1, *q = 2); }`
	_, r := analyze(t, src, "f", Config{})
	s := judgement(r, sema.Strip(r.Root).ID())
	got := pairNames(r, s.Pi)
	found := false
	for _, p := range got {
		if p == "*p|*q" {
			found = true
		}
	}
	if !found {
		t.Errorf("argument writes must pair: %v", got)
	}
}

// TestFunCallClearsGamma: the sequence point before the call clears γ.
func TestFunCallClearsGamma(t *testing.T) {
	src := `int id1(int x) { return x; }
void f(int i) { id1(i++); }`
	_, r := analyze(t, src, "f", Config{})
	s := judgement(r, sema.Strip(r.Root).ID())
	if len(s.Gamma) != 0 {
		t.Errorf("γ must be cleared at the call sequence point: %v", names(r, s.Gamma))
	}
}

// TestSizeofUnevaluated: sizeof's operand generates nothing.
func TestSizeofUnevaluated(t *testing.T) {
	_, r := analyze(t, "void f(int i) { sizeof(i++) + i; }", "f", Config{})
	s := judgement(r, sema.Strip(r.Root).ID())
	if len(s.Theta) != 0 || len(s.Pi) != 0 {
		t.Errorf("sizeof operand must not contribute: θ=%v π=%v",
			names(r, s.Theta), pairNames(r, s.Pi))
	}
}

// TestAddressOfPassThrough: &x neither reads nor writes x.
func TestAddressOfPassThrough(t *testing.T) {
	_, r := analyze(t, "void f(int x, int *p) { p = &x; }", "f", Config{})
	s := judgement(r, sema.Strip(r.Root).ID())
	wantSet(t, "omega", names(r, s.Omega), nil)
	wantSet(t, "theta", names(r, s.Theta), []string{"p"})
}

// TestAssignmentAllowsSelfReference: the remove_refs subtlety — in
// x = x + 1 the read of x is sequenced before the write: no pair. But in
// x = (y = x), y's write pairs with nothing on x... and in
// (x = 1) + (x = 2) both writes pair.
func TestAssignmentSubtleties(t *testing.T) {
	_, r := analyze(t, "void f(int x) { x = x + 1; }", "f", Config{})
	s := judgement(r, sema.Strip(r.Root).ID())
	if len(s.Pi) != 0 {
		t.Errorf("x = x+1 must have empty π: %v", pairNames(r, s.Pi))
	}

	_, r2 := analyze(t, "void f(int x) { (x = 1) + (x = 2); }", "f", Config{})
	s2 := judgement(r2, sema.Strip(r2.Root).ID())
	wantSet(t, "pi", pairNames(r2, s2.Pi), []string{"x|x"})
}

// TestCompoundAssignmentReads: x += y reads x and y, writes x; the read
// of the LHS pairs with θ of the RHS.
func TestCompoundAssignment(t *testing.T) {
	_, r := analyze(t, "void f(int x, int y) { x += y-- ; }", "f", Config{})
	s := judgement(r, sema.Strip(r.Root).ID())
	wantSet(t, "theta", names(r, s.Theta), []string{"x", "y"})
	got := pairNames(r, s.Pi)
	wantSet(t, "pi", got, []string{"x|y"})
}

// TestPostIncDeref: *p++ = v : the side effect on p is unsequenced with
// the store through the old p... Fig. 1 gives must-not-alias(*p++, p)
// via χ({e1}, γ1).
func TestPostIncDeref(t *testing.T) {
	_, r := analyze(t, "void f(int *p, int v) { *p++ = v; }", "f", Config{})
	s := judgement(r, sema.Strip(r.Root).ID())
	got := pairNames(r, s.Pi)
	found := false
	for _, pn := range got {
		if strings.Contains(pn, "p") && strings.Contains(pn, "*") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a (*p++..., p) pair, got %v", got)
	}
}

// TestGetU32Pattern: x264 io_tiff.c getU32 — u.in[0] = *t->mp++ etc.
// The side effect on t->mp must not alias the store target.
func TestGetU32Pattern(t *testing.T) {
	src := `typedef unsigned char uint8;
struct Tiff { uint8 *mp; };
void f(struct Tiff *t, uint8 *in) { in[0] = *t->mp++; }`
	an, r := analyze(t, src, "f", Config{})
	preds := an.Predicates(r)
	if len(preds) == 0 {
		t.Fatal("expected predicates for the getU32 pattern")
	}
}

// TestBitfieldFilter: predicates with both sides bitfields are flagged.
func TestBitfieldFilter(t *testing.T) {
	src := `struct B { unsigned a : 3; unsigned b : 5; };
void f(struct B *x) { (x->a = 1) + (x->b = 2); }`
	an, r := analyze(t, src, "f", Config{})
	preds := an.Predicates(r)
	sawBoth := false
	for _, p := range preds {
		if p.BothBitfields {
			sawBoth = true
		}
	}
	if !sawBoth {
		t.Errorf("expected a both-bitfields predicate to be flagged: %v", preds)
	}
	// With the ablation flag the predicates are kept unflagged.
	an2, r2 := analyze(t, src, "f", Config{KeepBitfieldPredicates: true})
	for _, p := range an2.Predicates(r2) {
		if p.BothBitfields {
			t.Errorf("ablation must keep bitfield predicates unflagged")
		}
	}
}

// TestMixedBitfieldKept: a predicate with only one bitfield side is kept.
func TestMixedBitfieldKept(t *testing.T) {
	src := `struct B { unsigned a : 3; int plain; };
void f(struct B *x, int *p) { (x->a = 1) + (*p = 2); }`
	an, r := analyze(t, src, "f", Config{})
	for _, p := range an.Predicates(r) {
		if p.BothBitfields {
			t.Errorf("mixed bitfield predicate must be kept: %v", p)
		}
	}
}

// TestSanitizerModeDropsCalls: AssumeAllCallsImpure suppresses operators
// with calls in operands.
func TestSanitizerModeDropsCalls(t *testing.T) {
	src := `int pick(int x) { return x + 1; }
int a;
void f(int *p) { a = pick(1) + (*p = 2); }`
	an, r := analyze(t, src, "f", Config{AssumeAllCallsImpure: true})
	if preds := an.Predicates(r); len(preds) != 0 {
		t.Errorf("sanitizer mode must drop call-involving predicates: %v", preds)
	}
}

// TestGammaClearAblation: in x = a[(i++, j)] the side effect on i is
// sequenced (comma) before the decay of a[...]: the sound analysis emits
// no pairs. With γ-clearing disabled (NoGammaClear), the stale pending
// side effect on i incorrectly pairs with the reads — demonstrating why
// the sequence-point handling in Fig. 1 matters.
func TestGammaClearAblation(t *testing.T) {
	src := "int a[8];\nvoid f(int i, int j, int x) { x = a[(i++, j)]; }"
	_, r := analyze(t, src, "f", Config{})
	s := judgement(r, sema.Strip(r.Root).ID())
	sound := len(s.Pi)
	if sound != 0 {
		t.Errorf("sound analysis must emit no pairs here, got %v", pairNames(r, s.Pi))
	}

	_, r2 := analyze(t, src, "f", Config{NoGammaClear: true})
	s2 := judgement(r2, sema.Strip(r2.Root).ID())
	unsound := len(s2.Pi)
	if unsound <= sound {
		t.Errorf("ablation should add unsound pairs: sound=%d unsound=%d", sound, unsound)
	}
}

// TestHasUnseqSideEffect mirrors Table 5 column 3's counting rule.
func TestHasUnseqSideEffect(t *testing.T) {
	_, rs := analyzeAll(t, "void f(int i, int j, int *p) { i = j; *p = i++ + j; }", "f", Config{})
	if rs[0].HasUnseqSideEffect {
		t.Error("i = j generates no predicates")
	}
	if !rs[1].HasUnseqSideEffect {
		t.Error("*p = i++ + j generates predicates")
	}
}

// TestAnalyzeUnitCounts: AnalyzeUnit visits every function and global
// initializer.
func TestAnalyzeUnit(t *testing.T) {
	src := `int g = 1;
void f1(int i) { i = i + 1; }
void f2(int *p, int i) { *p = i++; }`
	tu, perrs := parser.ParseFile("t.c", src, nil)
	if len(perrs) > 0 {
		t.Fatal(perrs[0])
	}
	if errs := sema.Check(tu); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	a := New(Config{}, FuncMap(tu))
	reports := a.AnalyzeUnit(tu)
	if len(reports) != 3 {
		t.Fatalf("expected 3 full expressions, got %d", len(reports))
	}
	withPreds := 0
	for _, rep := range reports {
		if len(rep.Predicates) > 0 {
			withPreds++
		}
	}
	if withPreds != 1 {
		t.Errorf("exactly one full expression generates predicates, got %d", withPreds)
	}
}
