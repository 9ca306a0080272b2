package repro_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/csem"
	"repro/internal/ooe"
	"repro/internal/parser"
	"repro/internal/sema"
)

// TestTheorem32Randomized cross-checks the paper's soundness theorem on
// randomly generated expressions: for every π pair (e1, e2) the static
// analysis infers over two pointer variables, forcing those pointers to
// alias must make some evaluation undefined (otherwise the must-not-alias
// inference would be wrong). The dynamic verdict comes from the
// independent csem reference semantics, so agreement is meaningful.
func TestTheorem32Randomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pairsChecked := 0
	for trial := 0; trial < 120; trial++ {
		expr := genUnseqExpr(rng, 2)
		// Two variants: pointers to DISTINCT objects (must be defined if
		// csem finds no other race) and pointers to the SAME object.
		distinct := "int u, v; int main() { int *p = &u, *q = &v; " + expr + "; return u + v; }"
		aliased := "int w; int main() { int *p = &w, *q = &w; " + expr + "; return w; }"

		// Static analysis on the distinct variant.
		tu, perrs := parser.ParseFile("t.c", distinct, nil)
		if len(perrs) > 0 {
			continue // generator produced something outside the subset
		}
		if errs := sema.Check(tu); len(errs) > 0 {
			continue
		}
		var mainFn *ast.FuncDecl
		for _, f := range tu.Funcs {
			if f.Name == "main" {
				mainFn = f
			}
		}
		an := ooe.New(ooe.Config{}, ooe.FuncMap(tu))
		crossPQ := false
		for _, rep := range an.AnalyzeFunction(mainFn) {
			for _, p := range rep.Predicates {
				s1, s2 := ast.ExprString(p.E1), ast.ExprString(p.E2)
				if (strings.Contains(s1, "*p") && strings.Contains(s2, "*q")) ||
					(strings.Contains(s1, "*q") && strings.Contains(s2, "*p")) {
					crossPQ = true
				}
			}
		}
		if !crossPQ {
			continue // no (*p, *q) inference for this expression
		}
		pairsChecked++

		// Theorem 3.2: with p and q aliased, SOME evaluation must be
		// undefined.
		if !csemFindsUB(t, aliased) {
			t.Errorf("trial %d: analysis inferred must-not-alias(*p, *q) but the aliased "+
				"program is defined under every sampled order:\n%s", trial, aliased)
		}
	}
	if pairsChecked < 15 {
		t.Errorf("too few cross-pointer predicates exercised: %d", pairsChecked)
	}
}

// csemFindsUB runs the program under many evaluation orders and reports
// whether any is undefined.
func csemFindsUB(t *testing.T, src string) bool {
	t.Helper()
	tu, perrs := parser.ParseFile("u.c", src, nil)
	if len(perrs) > 0 {
		t.Fatalf("parse: %v\n%s", perrs[0], src)
	}
	if errs := sema.Check(tu); len(errs) > 0 {
		t.Fatalf("sema: %v\n%s", errs[0], src)
	}
	oracles := []csem.Oracle{csem.LeftFirst{}, csem.RightFirst{}}
	for i := 0; i < 6; i++ {
		bits := make([]uint64, 32)
		for j := range bits {
			bits[j] = uint64(i*31+j) * 2654435761
		}
		oracles = append(oracles, &csem.BitOracle{Bits: bits})
	}
	for _, o := range oracles {
		m, err := csem.NewMachine(tu, o)
		if err == nil {
			_, err = m.Run("main")
		}
		var u *csem.Undefined
		if errors.As(err, &u) {
			return true
		}
	}
	return false
}

// genUnseqExpr produces an expression statement mixing *p and *q with
// unsequenced operators.
func genUnseqExpr(rng *rand.Rand, depth int) string {
	atoms := []string{"*p", "*q", "(*p)++", "--(*q)", "(*p = %d)", "(*q = %d)", "(*p += 3)", "(*q -= 2)"}
	atom := func() string {
		a := atoms[rng.Intn(len(atoms))]
		if strings.Contains(a, "%d") {
			a = fmt.Sprintf(a, rng.Intn(20))
		}
		return a
	}
	if depth == 0 {
		return atom()
	}
	switch rng.Intn(4) {
	case 0:
		return "(" + genUnseqExpr(rng, depth-1) + " + " + genUnseqExpr(rng, depth-1) + ")"
	case 1:
		return "(" + genUnseqExpr(rng, depth-1) + " * " + genUnseqExpr(rng, depth-1) + ")"
	case 2:
		return "(" + genUnseqExpr(rng, depth-1) + " ^ " + atom() + ")"
	default:
		return "(*p = " + genUnseqExpr(rng, depth-1) + ")"
	}
}

// TestTheorem31OmegaThetaWitness spot-checks Theorem 3.1's first claim on
// concrete expressions: an ID in θ really is written in every evaluation,
// and an ID in ω really is read.
func TestTheorem31OmegaThetaWitness(t *testing.T) {
	cases := []struct {
		src        string
		wantWrite  string // variable that must be written
		wantUnread string // variable that must NOT be in ω at top level
	}{
		{"void f(int x, int y) { x = y + 1; }", "x", ""},
		{"void f(int x, int y) { x += y; }", "x", ""},
		{"void f(int x, int y) { y = (x != 0) ? 1 : 2; }", "y", ""},
		// && short-circuits: y-- may not run, so y ∉ θ.
		{"void f(int x, int y) { x-- && y--; }", "x", "y"},
	}
	for _, c := range cases {
		tu, perrs := parser.ParseFile("w.c", c.src, nil)
		if len(perrs) > 0 {
			t.Fatal(perrs[0])
		}
		if errs := sema.Check(tu); len(errs) > 0 {
			t.Fatal(errs[0])
		}
		an := ooe.New(ooe.Config{}, ooe.FuncMap(tu))
		rep := an.AnalyzeFunction(tu.Funcs[0])[0]
		root := sema.Strip(rep.Result.Root)
		sets, _ := rep.Result.Sets(root.ID())
		foundWrite := false
		for _, id := range sets.Theta.Sorted() {
			if ast.ExprString(rep.Result.Expr(id)) == c.wantWrite {
				foundWrite = true
			}
			if c.wantUnread != "" && ast.ExprString(rep.Result.Expr(id)) == c.wantUnread {
				t.Errorf("%s: %s must not be in θ (may not execute)", c.src, c.wantUnread)
			}
		}
		if !foundWrite {
			t.Errorf("%s: %s missing from θ", c.src, c.wantWrite)
		}
	}
}
