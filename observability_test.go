package repro_test

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestObservabilityArtifacts pins the schemas of the three artifacts
// `ooelala -j 4 -trace -aa-audit -explain examples/minmax.c` writes:
// the Chrome trace, the alias-query audit log and the -explain listing
// of the paper's §2 example.
func TestObservabilityArtifacts(t *testing.T) {
	src, err := os.ReadFile("examples/minmax.c")
	if err != nil {
		t.Fatal(err)
	}
	// -explain forces the remark stream and the audit log on.
	tel := telemetry.New(telemetry.Config{Trace: true, Audit: true, Remarks: true})
	c, err := driver.Compile("examples/minmax.c", string(src), driver.Config{
		OOElala:   true,
		Files:     workload.Files(),
		Jobs:      4,
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()

	t.Run("trace", func(t *testing.T) {
		var buf bytes.Buffer
		if err := telemetry.WriteChromeTrace(&buf, snap); err != nil {
			t.Fatal(err)
		}
		var trace struct {
			DisplayTimeUnit string `json:"displayTimeUnit"`
			TraceEvents     []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				Ts   float64 `json:"ts"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
			t.Fatal(err)
		}
		if trace.DisplayTimeUnit != "ms" {
			t.Errorf("displayTimeUnit = %q, want ms", trace.DisplayTimeUnit)
		}
		threadNames, complete := 0, 0
		for _, ev := range trace.TraceEvents {
			switch ev.Ph {
			case "M":
				if ev.Name == "thread_name" {
					threadNames++
				}
			case "X":
				complete++
				if ev.Ts < 0 || ev.Dur < 0 {
					t.Errorf("X event %q has negative ts %v or dur %v", ev.Name, ev.Ts, ev.Dur)
				}
			}
		}
		if threadNames == 0 {
			t.Error("trace has no thread_name metadata event")
		}
		if complete == 0 {
			t.Error("trace has no X (complete) event")
		}
	})

	t.Run("audit", func(t *testing.T) {
		var buf bytes.Buffer
		if err := telemetry.WriteAuditJSON(&buf, snap); err != nil {
			t.Fatal(err)
		}
		var audit struct {
			Total   int `json:"total"`
			Queries []struct {
				UnseqDecided  bool    `json:"unseqDecided"`
				PredicateMeta int     `json:"predicateMeta"`
				PiE1Range     *string `json:"piE1Range"`
				Chain         []struct {
					Provider string `json:"provider"`
				} `json:"chain"`
			} `json:"queries"`
		}
		if err := json.Unmarshal(buf.Bytes(), &audit); err != nil {
			t.Fatal(err)
		}
		if audit.Total < 1 || len(audit.Queries) < 1 {
			t.Fatalf("audit total %d with %d queries, want >= 1", audit.Total, len(audit.Queries))
		}
		decided := 0
		for i, q := range audit.Queries {
			if n := len(q.Chain); n == 0 || q.Chain[n-1].Provider != "unseq-aa" {
				t.Errorf("query %d: provider chain %+v does not end in unseq-aa", i, q.Chain)
			}
			if !q.UnseqDecided {
				continue
			}
			decided++
			if q.PredicateMeta <= 0 || q.PiE1Range == nil {
				t.Errorf("unseq-decided query %d lacks provenance: meta %d, piE1Range %v", i, q.PredicateMeta, q.PiE1Range)
			}
		}
		if decided == 0 {
			t.Error("audit log has no unseq-decided query")
		}
	})

	t.Run("explain", func(t *testing.T) {
		var buf bytes.Buffer
		if err := driver.Explain(&buf, c, snap); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"{*a, *b}", "NoAlias for"} {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("explain output missing %q:\n%s", want, buf.String())
			}
		}
	})
}
