package ooe

import (
	"fmt"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/parser"
	"repro/internal/sema"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// analyzeFunctionMallocs counts the allocations of a warm AnalyzeFunction
// over three full expressions whose operand sums have k terms; only the
// first has π pairs (two predicates, whatever k is).
func analyzeFunctionMallocs(t *testing.T, k int) int {
	t.Helper()
	terms := make([]string, k)
	for i := range terms {
		terms[i] = fmt.Sprintf("a[%d]", i)
	}
	sum := strings.Join(terms, " + ")
	src := "int a[64];\nvoid f(int *p, int *q, int i) {\n" +
		"  *p = *q = " + sum + ";\n" +
		"  i = " + sum + ";\n" +
		"  if (" + sum + " > i) return;\n}"
	tu, perrs := parser.ParseFile("allocs.c", src, nil)
	if len(perrs) > 0 {
		t.Fatal(perrs[0])
	}
	if errs := sema.Check(tu); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	a := New(Config{}, FuncMap(tu))
	f := tu.Funcs[0]
	if reps := a.AnalyzeFunction(f); len(reps) != 3 || len(reps[0].Predicates) != 2 {
		t.Fatalf("want 3 full expressions and 2 predicates on the first, got %d reports", len(reps))
	}
	return int(testing.AllocsPerRun(50, func() { a.AnalyzeFunction(f) }))
}

// TestAnalyzeFunctionAllocs pins that the analysis allocates per full
// expression (reports, results, predicates), never per node or per set:
// a warm call makes the same small number of allocations whether the
// sums span 15 nodes or 119 (two bitset words).
func TestAnalyzeFunctionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("in -race builds sync.Pool drops a random share of Puts, so a warm call may build a fresh scratch")
	}
	// A collection empties the pool, and the next Get builds a fresh
	// scratch: that counts collections, not the analysis.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	analyzeFunctionMallocs(t, 30) // warm the pool's tables to the larger size
	small, large := analyzeFunctionMallocs(t, 4), analyzeFunctionMallocs(t, 30)
	if small != large || large > 8 {
		t.Errorf("AnalyzeFunction allocated %d times with 4-term and %d with 30-term sums, want one small constant", small, large)
	}
	t.Logf("%d allocations per call", large)
}
