package profile

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func sampleProfile() *Profile {
	return &Profile{
		Unit:   "unit.c",
		Engine: "vm",
		Samples: []Sample{
			{Fn: "main", File: "unit.c", Line: 3, Op: "load", Cycles: 4, Retired: 1},
			{Fn: "kern", File: "unit.c", Line: 10, Op: "gep_load", Cycles: 100, Retired: 20},
			{Fn: "kern", File: "unit.c", Line: 10, Op: "fmul", Cycles: 50, Retired: 20},
			{Fn: "kern", File: "unit.c", Line: 11, Op: "store", Cycles: 150, Retired: 20},
			{Fn: "kern", Op: "br", Cycles: 6, Retired: 6}, // no span
		},
	}
}

func TestFlattenAggregatesAndOrders(t *testing.T) {
	p := sampleProfile()
	flat := Flatten(p)
	if len(flat) != 4 {
		t.Fatalf("want 4 flat lines, got %d: %+v", len(flat), flat)
	}
	// Hottest first; the two kern:10 samples merge.
	if flat[0].Line != 10 || flat[0].Cycles != 150 || flat[0].Retired != 40 {
		t.Errorf("line 10 aggregate wrong: %+v", flat[0])
	}
	if flat[1].Line != 11 || flat[1].Cycles != 150 {
		t.Errorf("tie-break order wrong: %+v", flat[1])
	}
	// Equal cycles tie-break on fn name: kern:10 before kern:11? Both
	// kern — then line ascending.
	if flat[0].Line > flat[1].Line {
		t.Errorf("equal-cycle ties must order by line: %+v then %+v", flat[0], flat[1])
	}
	if got := p.TotalCycles(); got != 310 {
		t.Errorf("TotalCycles = %v", got)
	}
	if got := p.TotalRetired(); got != 67 {
		t.Errorf("TotalRetired = %v", got)
	}
}

// TestAggregatesExactInMilliCycles feeds samples with non-dyadic cycle
// counts (exact milli-cycles over 1000, as the engines report them) and
// checks that every aggregate is an integer milli-cycle count over 1000,
// equal to the integer sum. A float64 running sum fails this on the
// same data (0.1 + 0.1 + 0.1 is 0.30000000000000004).
func TestAggregatesExactInMilliCycles(t *testing.T) {
	p := &Profile{Unit: "u.c", Engine: "vm"}
	wantFn := map[string]int64{}
	var wantTotal int64
	naive := map[string]float64{}
	for i := 0; i < 300; i++ {
		m := []int64{100, 1100, 1300, 7, 2650}[i%5]
		fn := []string{"f", "g", "h"}[i%3]
		p.Samples = append(p.Samples, Sample{Fn: fn, File: "u.c", Line: 1 + i%7, Cycles: float64(m) / 1000, Retired: 1})
		wantFn[fn] += m
		wantTotal += m
		naive[fn] += float64(m) / 1000
	}
	exact := func(what string, v float64, want int64) {
		t.Helper()
		if m := math.Round(v * 1000); v != m/1000 || int64(m) != want {
			t.Errorf("%s = %v, want %d milli-cycles / 1000 = %v", what, v, want, float64(want)/1000)
		}
	}
	inexact := 0
	for fn, v := range ByFunction(p) {
		exact("ByFunction["+fn+"]", v, wantFn[fn])
		if naive[fn] != v {
			inexact++
		}
	}
	if inexact == 0 {
		t.Fatal("test data too easy: a float64 sum is exact on it too")
	}
	exact("TotalCycles", p.TotalCycles(), wantTotal)
	var flatSum int64
	for _, fl := range Flatten(p) {
		exact("Flatten "+fl.Fn, fl.Cycles, int64(math.Round(fl.Cycles*1000)))
		flatSum += int64(math.Round(fl.Cycles * 1000))
	}
	if flatSum != wantTotal {
		t.Errorf("Flatten lines sum to %d milli-cycles, want %d", flatSum, wantTotal)
	}
}

func TestWritePprofDeterministicAndParseable(t *testing.T) {
	p := sampleProfile()
	var a, b bytes.Buffer
	if err := WritePprof(&a, p); err != nil {
		t.Fatal(err)
	}
	if err := WritePprof(&b, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("pprof encoding is not byte-stable")
	}
	if a.Len() == 0 {
		t.Fatal("empty pprof output")
	}
	// Structural smoke check: the string table must contain our
	// symbols as length-prefixed payloads.
	for _, s := range []string{"cycles", "retired", "kern", "unit.c"} {
		if !bytes.Contains(a.Bytes(), []byte(s)) {
			t.Errorf("pprof output missing string %q", s)
		}
	}
}

func TestWriteFoldedStable(t *testing.T) {
	p := sampleProfile()
	var a bytes.Buffer
	if err := WriteFolded(&a, p); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 folded lines, got %d:\n%s", len(lines), a.String())
	}
	for i := 1; i < len(lines); i++ {
		if lines[i-1] > lines[i] {
			t.Errorf("folded lines unsorted: %q > %q", lines[i-1], lines[i])
		}
	}
	if !strings.Contains(a.String(), "unit.c;kern;unit.c:10 150") {
		t.Errorf("missing aggregated folded line:\n%s", a.String())
	}
}

func TestWriteAnnotateWithAndWithoutSource(t *testing.T) {
	p := sampleProfile()
	src := strings.Repeat("line\n", 12)
	var withSrc, noSrc bytes.Buffer
	if err := WriteAnnotate(&withSrc, p, map[string]string{"unit.c": src}); err != nil {
		t.Fatal(err)
	}
	if err := WriteAnnotate(&noSrc, p, nil); err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{withSrc.String(), noSrc.String()} {
		if !strings.Contains(out, "<no source span>") {
			t.Error("unlocated bucket missing")
		}
		if !strings.Contains(out, "total: 310.00 cycles") {
			t.Error("total header missing")
		}
	}
	// With source, every file line appears; without, only attributed ones.
	if got := strings.Count(withSrc.String(), "| line"); got < 12 {
		t.Errorf("source listing shows %d lines, want 12", got)
	}
	if !strings.Contains(noSrc.String(), "unit.c:10 (40 retired)") {
		t.Errorf("table form missing aggregated line:\n%s", noSrc.String())
	}
}
