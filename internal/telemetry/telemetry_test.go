package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilSessionIsNoop(t *testing.T) {
	var s *Session
	stop := s.Span("x")
	stop()
	s.Count("c", 1)
	s.AddGauge("g", 2)
	s.SetGauge("g", 3)
	s.Remark(Remark{Pass: "p"})
	if s.MetricsEnabled() || s.TimingEnabled() || s.RemarksEnabled() {
		t.Fatal("nil session reports enabled streams")
	}
	snap := s.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Durations) != 0 || len(snap.Remarks) != 0 {
		t.Fatalf("nil session collected data: %+v", snap)
	}
}

// TestNoopNoAllocs is the acceptance gate for the "zero-overhead
// default": with telemetry off (nil session), the instrumentation call
// pattern used on the driver hot path must not allocate.
func TestNoopNoAllocs(t *testing.T) {
	var s *Session
	allocs := testing.AllocsPerRun(1000, func() {
		stop := s.Span("phase/opt")
		s.Count("aa/queries", 1)
		s.AddGauge("interp/cycles", 42)
		s.Remark(Remark{Pass: "licm", Function: "f", Kind: "LICMHoisted"})
		stop()
	})
	if allocs != 0 {
		t.Fatalf("no-op telemetry allocated %.1f times per op, want 0", allocs)
	}
}

// Disabled streams on a live session must be no-ops too (e.g. -stats
// without -time-passes must not pay for spans).
func TestDisabledStreamNoAllocs(t *testing.T) {
	s := New(Config{Metrics: true})
	allocs := testing.AllocsPerRun(1000, func() {
		stop := s.Span("phase/opt")
		s.Remark(Remark{Pass: "dse", Kind: "StoreDeleted"})
		stop()
	})
	if allocs != 0 {
		t.Fatalf("disabled spans/remarks allocated %.1f times per op, want 0", allocs)
	}
}

func TestNewDisabledReturnsNil(t *testing.T) {
	if s := New(Config{}); s != nil {
		t.Fatal("New with empty config should return the nil no-op sink")
	}
}

func TestCountersGaugesSpansRemarks(t *testing.T) {
	s := New(Config{Metrics: true, Timing: true, Remarks: true})
	s.Count("a", 2)
	s.Count("b", 1)
	s.Count("a", 3)
	s.SetGauge("g", 7)
	s.AddGauge("g", 1)
	stop := s.Span("phase/parse")
	time.Sleep(time.Millisecond)
	stop()
	s.RecordDuration("phase/parse", 2*time.Millisecond)
	s.Remark(Remark{Pass: "licm", Function: "minmax", Kind: "LICMPromoted",
		EnabledByUnseqAA: true, PredicateMeta: 3})

	snap := s.Snapshot()
	if len(snap.Counters) != 2 || snap.Counters[0].Name != "a" || snap.Counters[0].Value != 5 {
		t.Fatalf("counters wrong: %+v", snap.Counters)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 8 {
		t.Fatalf("gauges wrong: %+v", snap.Gauges)
	}
	if len(snap.Durations) != 1 {
		t.Fatalf("durations wrong: %+v", snap.Durations)
	}
	d := snap.Durations[0]
	if d.Name != "phase/parse" || d.Count != 2 || d.TotalNS < int64(3*time.Millisecond) {
		t.Fatalf("span accumulation wrong: %+v", d)
	}
	var nb int64
	for _, b := range d.Buckets {
		nb += b
	}
	if nb != 2 {
		t.Fatalf("histogram bucket counts = %d, want 2", nb)
	}
	if len(snap.Remarks) != 1 || !snap.Remarks[0].EnabledByUnseqAA {
		t.Fatalf("remarks wrong: %+v", snap.Remarks)
	}
}

func TestSnapshotDiff(t *testing.T) {
	s := New(Config{Metrics: true, Timing: true, Remarks: true})
	s.Count("q", 10)
	s.RecordDuration("p", time.Millisecond)
	s.Remark(Remark{Pass: "dse", Kind: "StoreDeleted"})
	before := s.Snapshot()

	s.Count("q", 5)
	s.Count("r", 1)
	s.RecordDuration("p", time.Millisecond)
	s.Remark(Remark{Pass: "licm", Kind: "LICMHoisted"})
	diff := s.Snapshot().Diff(before)

	got := map[string]int64{}
	for _, c := range diff.Counters {
		got[c.Name] = c.Value
	}
	if got["q"] != 5 || got["r"] != 1 || len(diff.Counters) != 2 {
		t.Fatalf("counter diff wrong: %+v", diff.Counters)
	}
	if len(diff.Durations) != 1 || diff.Durations[0].Count != 1 {
		t.Fatalf("duration diff wrong: %+v", diff.Durations)
	}
	if len(diff.Remarks) != 1 || diff.Remarks[0].Pass != "licm" {
		t.Fatalf("remark diff wrong: %+v", diff.Remarks)
	}
}

func TestExporters(t *testing.T) {
	s := New(Config{Metrics: true, Timing: true, Remarks: true})
	s.Count("aa/unseq_noalias", 4)
	s.SetGauge("interp/cycles", 1234.5)
	s.RecordDuration("phase/opt", 3*time.Millisecond)
	s.Remark(Remark{Pass: "vectorize", Function: "kernel", Loc: "for.header",
		Kind: "LoopVectorized", EnabledByUnseqAA: true, PredicateMeta: 7})
	snap := s.Snapshot()

	var txt bytes.Buffer
	if err := WriteText(&txt, snap); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"phase/opt", "aa/unseq_noalias", "LoopVectorized", "unseq-aa, pred #7"} {
		if !strings.Contains(txt.String(), want) {
			t.Fatalf("text export missing %q:\n%s", want, txt.String())
		}
	}

	var js bytes.Buffer
	if err := WriteJSON(&js, snap); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(js.Bytes(), &round); err != nil {
		t.Fatalf("JSON export not valid: %v", err)
	}
	if len(round.Remarks) != 1 || !round.Remarks[0].EnabledByUnseqAA || round.Remarks[0].PredicateMeta != 7 {
		t.Fatalf("JSON round trip lost remark attribution: %+v", round.Remarks)
	}
	if !strings.Contains(js.String(), `"enabledByUnseqAA": true`) {
		t.Fatalf("JSON missing enabledByUnseqAA field:\n%s", js.String())
	}

	var prom bytes.Buffer
	if err := WritePrometheus(&prom, snap); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE ooelala_aa_unseq_noalias counter",
		"ooelala_aa_unseq_noalias 4",
		"# TYPE ooelala_phase_seconds histogram",
		`ooelala_phase_seconds_bucket{phase="phase/opt",le="+Inf"} 1`,
		"ooelala_remarks_unseq_enabled_total 1",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("prometheus export missing %q:\n%s", want, prom.String())
		}
	}
}

func BenchmarkNoopSpanAndCount(b *testing.B) {
	var s *Session
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stop := s.Span("phase/opt")
		s.Count("aa/queries", 1)
		stop()
	}
}
