package workload

import (
	"math"
	"testing"

	"repro/internal/driver"
	"repro/internal/profile"
)

// driverSpeedup adapts driver.Speedup for the unit tests here.
func driverSpeedup(p Program) (float64, int64, error) {
	return driver.Speedup(p.Name, p.Source, Files(), nil)
}

// TestSpecTable5Shape: the structural relations the paper's Table 5
// exhibits must hold on the synthetic corpus.
func TestSpecTable5Shape(t *testing.T) {
	for _, b := range SpecSuite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			row, err := MeasureTable5(b)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%-10s genloc=%-6d unseq=%-4d initial=%-4d final=%-4d unique=%-4d extraNoAlias=%-5d q+%.2f%%",
				b.Name, row.GenLOC, row.UnseqExprs, row.InitialPreds,
				row.FinalPreds, row.UniquePreds, row.ExtraNoAlias, row.QueryIncreasePct())
			if row.UnseqExprs == 0 {
				t.Error("no unsequenced expressions found")
			}
			// Initial predicates >= full expressions (several per expr).
			if row.InitialPreds < row.UnseqExprs {
				t.Errorf("initial preds %d < unseq exprs %d", row.InitialPreds, row.UnseqExprs)
			}
			// Unique <= final.
			if row.UniquePreds > row.FinalPreds {
				t.Errorf("unique %d > final %d", row.UniquePreds, row.FinalPreds)
			}
			// Benchmarks with hot loops clone predicates (final > unique);
			// for the rest unique should track final closely.
			if b.HotLoops && row.FinalPreds <= row.UniquePreds && row.FinalPreds > 0 {
				t.Logf("note: expected cloning to make final > unique for %s", b.Name)
			}
		})
	}
}

// TestSpecTable5Density: the generated density of unsequenced expressions
// per kloc should be within a factor of three of the paper's density for
// each benchmark (the corpus is scaled down, densities preserved).
func TestSpecTable5Density(t *testing.T) {
	for _, b := range SpecSuite() {
		row, err := MeasureTable5(b)
		if err != nil {
			t.Fatal(err)
		}
		paperDensity := float64(b.PaperUnseqExprs) / float64(b.PaperKLOC)
		genDensity := float64(row.UnseqExprs) / (float64(row.GenLOC) / 1000)
		ratio := genDensity / paperDensity
		t.Logf("%-10s paper %.1f/kloc, generated %.1f/kloc (ratio %.2f)",
			b.Name, paperDensity, genDensity, ratio)
		if ratio < 0.2 || ratio > 12 {
			t.Errorf("%s: density ratio %.2f too far from the paper", b.Name, ratio)
		}
	}
}

// TestSpecTable6Shape: tiny per-benchmark deltas, mixed signs, perlbench
// negative (the icache story), overall near zero but positive without
// perlbench.
func TestSpecTable6Shape(t *testing.T) {
	var base, ooe float64
	var basNoPerl, ooeNoPerl float64
	deltas := map[string]float64{}
	for _, b := range SpecSuite() {
		row, err := MeasureTable6(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []float64{row.CyclesBase, row.CyclesOOE} {
			if exact := float64(profile.Milli(c)) / 1000; c != exact {
				t.Errorf("%s: cycles %v are not a whole number of milli-cycles (%v): summed in floating point", b.Name, c, exact)
			}
		}
		d := row.DeltaPct()
		deltas[b.Name] = d
		t.Logf("%-10s delta %+0.3f%% (paper %+0.3f%%)", b.Name, d, b.PaperDeltaPct)
		base += row.CyclesBase
		ooe += row.CyclesOOE
		if b.Name != "perlbench" {
			basNoPerl += row.CyclesBase
			ooeNoPerl += row.CyclesOOE
		}
		if math.Abs(d) > 25 {
			t.Errorf("%s: delta %.2f%% is not 'small' — the suite-level effect should be modest", b.Name, d)
		}
	}
	overall := 100 * (base - ooe) / base
	overallNoPerl := 100 * (basNoPerl - ooeNoPerl) / basNoPerl
	t.Logf("overall %+0.3f%% (paper +0.064%%), w/o perlbench %+0.3f%% (paper +0.147%%)", overall, overallNoPerl)
	if deltas["perlbench"] >= 0 {
		t.Errorf("perlbench should regress (icache effect), got %+0.3f%%", deltas["perlbench"])
	}
	if overall < -1.0 {
		t.Errorf("overall delta should be near zero or positive, got %+0.3f%%", overall)
	}
	if overallNoPerl <= overall {
		t.Errorf("dropping perlbench should improve the overall delta: %+0.3f%% vs %+0.3f%%",
			overallNoPerl, overall)
	}
}

// TestSpecgenDeterministic: the corpus is a pure function of the
// benchmark parameters — same units byte-for-byte on every call.
func TestSpecgenDeterministic(t *testing.T) {
	for _, b := range SpecSuite() {
		u1 := GenerateUnits(b)
		u2 := GenerateUnits(b)
		if len(u1) != len(u2) {
			t.Fatalf("%s: unit counts differ", b.Name)
		}
		for i := range u1 {
			if u1[i].Source != u2[i].Source {
				t.Errorf("%s unit %d: nondeterministic generation", b.Name, i)
			}
		}
	}
}

// TestSpecgenUnitsCompileStandalone: every generated unit is a valid,
// runnable translation unit in both configurations.
func TestSpecgenUnitsCompileStandalone(t *testing.T) {
	b := SpecSuite()[1] // x264: hot loops + gains
	for _, u := range GenerateUnits(b) {
		if _, _, err := driverSpeedup(u); err != nil {
			t.Errorf("%s: %v", u.Name, err)
		}
	}
}
