package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// spec is the benchmark definition at the root of the repository.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// drawSuffix is the draw number specUnits puts in a unit's name.
var drawSuffix = regexp.MustCompile(`\.v[0-9]+_`)

// slice is a reduced workload: the named units of w, all of its legs.
// SPEC-shaped units are named without their draw number (lbm_u0).
func slice(t *testing.T, name string, units ...string) workloadDef {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	all := w.units
	w.units = func(v int) []*unit {
		var us []*unit
		for _, u := range all(v) {
			for _, n := range units {
				if drawSuffix.ReplaceAllString(u.name, "_") == n {
					us = append(us, u)
				}
			}
		}
		if len(us) != len(units) {
			t.Fatalf("%s: found %d of units %v", name, len(us), units)
		}
		return us
	}
	return w
}

// checkResult requires a fully correct run that printed exactly the
// named metrics, each with its declared unit.
func checkResult(t *testing.T, res *result, names []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, n := range names {
		m, ok := res.Metrics[n.Name]
		if !ok {
			t.Errorf("metric %s not printed", n.Name)
			continue
		}
		if m.Unit != n.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", n.Name, m.Unit, n.Unit)
		}
	}
	if len(res.Metrics) != len(names) {
		t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(names))
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	s := loadSpec(t)
	for _, w := range []workloadDef{
		slice(t, "kernels", "trisolv", "x264-tiff", "ip-dse"),
		slice(t, "spec-o3", "lbm_u0", "mcf_u0"),
		slice(t, "sanitize", "intro-minmax", "restrict-scale", "lbm_u0"),
	} {
		res, err := endToEnd(w, defaultSeed, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkResult(t, res, s.EndToEnd)
		if got := res.Metrics["ok_frac"].Value; got != 1 {
			t.Errorf("%s: ok_frac %v", w.name, got)
		}
		if res.Attempted < minTailSamples {
			t.Errorf("%s: %d samples, p90 needs %d", w.name, res.Attempted, minTailSamples)
		}
	}
}

// TestSmokeTraced checks that the layered composition reproduces the
// untraced outcomes (a mismatch fails the run) and prints the ledger.
func TestSmokeTraced(t *testing.T) {
	s := loadSpec(t)
	for _, w := range []workloadDef{
		slice(t, "kernels", "trisolv", "ip-dse"),
		slice(t, "sanitize", "intro-minmax", "lbm_u0"),
	} {
		res, err := traced(w, defaultSeed, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkResult(t, res, s.PerLayer)
	}
}

// TestSeedDraw checks that another seed draws other SPEC-shaped sources
// with the same unit counts, and that every draw's references are
// stored, so no seed runs csem during set-up.
func TestSeedDraw(t *testing.T) {
	rf, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Draws) != specDraws {
		t.Fatalf("refs.json lists %d draws, want %d", len(rf.Draws), specDraws)
	}
	for _, w := range workloads {
		a, b := w.units(drawOf(rf.Draws, defaultSeed)), w.units(drawOf(rf.Draws, defaultSeed+1))
		if len(a) != len(b) {
			t.Errorf("%s: %d units at seed %d, %d at seed %d", w.name, len(a), defaultSeed, len(b), defaultSeed+1)
		}
		if w.name != "kernels" && a[len(a)-1].src == b[len(b)-1].src {
			t.Errorf("%s: seeds %d and %d draw the same sources", w.name, defaultSeed, defaultSeed+1)
		}
		for _, d := range rf.Draws {
			for _, u := range w.units(d) {
				if _, ok := rf.Refs[sourceKey(u.src)]; !ok {
					t.Errorf("%s: no stored reference for %s", w.name, u.name)
				}
			}
		}
	}
}

// TestTable4Ratios checks that the kernels workload's baseline/unseq
// cycle ratios equal the committed Table 4 speedups.
func TestTable4Ratios(t *testing.T) {
	raw, err := os.ReadFile("../BENCH_ooebench.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed struct {
		Table4 []struct {
			Kernel  string  `json:"kernel"`
			Speedup float64 `json:"speedup"`
		} `json:"table4"`
	}
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range committed.Table4 {
		names = append(names, r.Kernel)
	}
	b := &bench{units: slice(t, "kernels", names...).units(0)}
	b.tasks = tasks(b.units, []leg{legBase, legUnseq})
	samples := make([][]sample, len(b.tasks))
	for i, tk := range b.tasks {
		s, err := runTask(tk)
		if err != nil {
			t.Fatal(err)
		}
		samples[i] = []sample{s}
	}
	byName := map[string]float64{}
	for u, r := range b.cycleRatios(samples) {
		byName[u.name] = r
	}
	for _, r := range committed.Table4 {
		if got := byName[r.Kernel]; got != r.Speedup {
			t.Errorf("%s: baseline/unseq cycles %v, BENCH_ooebench.json table4 %v", r.Kernel, got, r.Speedup)
		}
	}
}

// TestSmoothQuantile checks the smoothed latency quantile on two
// clusters: it stays at a cluster it lies inside and moves into the gap
// between them where the plain quantile would jump.
func TestSmoothQuantile(t *testing.T) {
	var xs []float64
	for i := 0; i < 90; i++ {
		xs = append(xs, 10)
	}
	for i := 0; i < 10; i++ {
		xs = append(xs, 100)
	}
	if p50 := smoothQuantile(xs, 0.5); p50 < 10 || p50 > 10.5 {
		t.Errorf("p50 %v, want about 10", p50)
	}
	if p90 := smoothQuantile(xs, 0.9); p90 <= 12 || p90 >= 80 {
		t.Errorf("p90 %v, want inside the gap", p90)
	}
	if p99 := smoothQuantile(xs, 0.99); p99 < 95 || p99 > 140 {
		t.Errorf("p99 %v, want about 100", p99)
	}
}
