package driver

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// minmaxSrc is the paper's introduction example (standalone — no
// workload header): the unsequenced `*min = *max = 0` full expression
// yields must-not-alias(*min, *max), which lets LICM register-promote
// both locations across the loop under the OOElala configuration.
const minmaxSrc = `
#define N 64
double a[N];

void minmax(int n, int *min, int *max) {
  *min = *max = 0;
  for (int i = 0; i < n; i++) {
    *min = (a[i] < a[*min]) ? i : *min;
    *max = (a[i] > a[*max]) ? i : *max;
  }
}

int lo, hi;
int main() {
  for (int i = 0; i < N; i++)
    a[i] = (double)((i * 131 + 47) % 997);
  minmax(N, &lo, &hi);
  return hi * 10000 + lo;
}
`

func countUnseqRemarks(snap *telemetry.Snapshot) int {
	n := 0
	for _, r := range snap.Remarks {
		if r.EnabledByUnseqAA {
			n++
		}
	}
	return n
}

// TestRemarkUnseqAttribution is the golden attribution test: the paper's
// minmax kernel must produce at least one optimization remark credited
// to unseq-aa under the OOElala configuration, and none under baseline.
func TestRemarkUnseqAttribution(t *testing.T) {
	cfg := telemetry.Config{Metrics: true, Timing: true, Remarks: true}

	tel := telemetry.New(cfg)
	c, err := Compile("minmax.c", minmaxSrc, Config{OOElala: true, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Run(""); err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()
	if got := countUnseqRemarks(snap); got == 0 {
		t.Fatalf("OOElala compile produced no unseq-aa-attributed remarks; all remarks: %+v", snap.Remarks)
	}
	found := false
	for _, r := range snap.Remarks {
		if r.EnabledByUnseqAA && r.Pass == "licm" {
			found = true
			if r.Function != "minmax" {
				t.Errorf("licm remark attributed to function %q, want minmax", r.Function)
			}
		}
	}
	if !found {
		t.Errorf("no unseq-aa-attributed licm remark; remarks: %+v", snap.Remarks)
	}
	unseq := int64(0)
	for _, c := range snap.Counters {
		if c.Name == "aa/unseq_noalias" {
			unseq = c.Value
		}
	}
	if unseq == 0 {
		t.Error("aa/unseq_noalias counter is zero under OOElala")
	}
	phases := map[string]bool{}
	for _, d := range snap.Durations {
		phases[d.Name] = true
	}
	layers := []string{"phase/parse", "phase/sema", "phase/ooe", "phase/irgen", "phase/opt", "phase/verify", "phase/vm_compile", "phase/run"}
	known := map[string]bool{}
	for _, want := range layers {
		known[want] = true
		if !phases[want] {
			t.Errorf("missing phase span %s; have %v", want, phases)
		}
	}
	// Every top-level phase span is one of the layers above: the run leg
	// records phase/run, named for the leg rather than for an engine.
	for name := range phases {
		if rest, ok := strings.CutPrefix(name, "phase/"); ok {
			if top, _, _ := strings.Cut(rest, "/"); !known["phase/"+top] {
				t.Errorf("unexpected top-level phase span %s", name)
			}
		}
	}

	base := telemetry.New(cfg)
	if _, err := Compile("minmax.c", minmaxSrc, Config{OOElala: false, Telemetry: base}); err != nil {
		t.Fatal(err)
	}
	if got := countUnseqRemarks(base.Snapshot()); got != 0 {
		t.Errorf("baseline compile produced %d unseq-aa-attributed remarks, want 0", got)
	}
}

// TestTelemetryDefaultOff ensures the disabled default changes nothing:
// compiling with and without a telemetry session yields identical
// statistics, and a nil session records nothing.
func TestTelemetryDefaultOff(t *testing.T) {
	plain, err := Compile("minmax.c", minmaxSrc, Config{OOElala: true})
	if err != nil {
		t.Fatal(err)
	}
	var tel *telemetry.Session // nil: the no-op default
	traced, err := Compile("minmax.c", minmaxSrc, Config{OOElala: true, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if plain.PassStats != traced.PassStats {
		t.Errorf("pass stats differ with nil telemetry: %v vs %v", plain.PassStats, traced.PassStats)
	}
	if plain.AAStats != traced.AAStats {
		t.Errorf("aa stats differ with nil telemetry: %v vs %v", plain.AAStats, traced.AAStats)
	}
	snap := tel.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Durations) != 0 || len(snap.Remarks) != 0 {
		t.Errorf("nil session recorded data: %+v", snap)
	}
}
