package driver_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestPrometheusExposition pins the text-exposition contract of the
// -metrics-prom file over a real compile: every TYPE line has a HELP
// line, no metric is declared twice, no series repeats (duplicates
// break ingestion), and the alias-query counter is live.
func TestPrometheusExposition(t *testing.T) {
	_, tel := compileMinmaxExample(t, telemetry.Config{Metrics: true, Timing: true, Remarks: true})
	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf, tel.Snapshot()); err != nil {
		t.Fatal(err)
	}
	body := buf.String()

	typed := map[string]bool{}
	helped := map[string]bool{}
	series := map[string]bool{}
	queries := int64(-1)
	for _, line := range strings.Split(body, "\n") {
		fields := strings.Fields(line)
		switch {
		case line == "":
		case len(fields) >= 3 && fields[0] == "#" && fields[1] == "TYPE":
			if typed[fields[2]] {
				t.Errorf("duplicate TYPE for %s", fields[2])
			}
			typed[fields[2]] = true
		case len(fields) >= 3 && fields[0] == "#" && fields[1] == "HELP":
			helped[fields[2]] = true
		case strings.HasPrefix(line, "#"):
		default:
			key := line[:strings.LastIndexByte(line, ' ')]
			if series[key] {
				t.Errorf("duplicate series %q", key)
			}
			series[key] = true
			if key == "ooelala_aa_queries" {
				v, err := strconv.ParseInt(line[len(key)+1:], 10, 64)
				if err != nil {
					t.Fatalf("ooelala_aa_queries value: %v", err)
				}
				queries = v
			}
		}
	}
	if len(typed) == 0 {
		t.Fatalf("no TYPE lines in exposition:\n%s", body)
	}
	for name := range typed {
		if !helped[name] {
			t.Errorf("metric %s has TYPE but no HELP line", name)
		}
	}
	if queries <= 0 {
		t.Errorf("ooelala_aa_queries = %d, want > 0:\n%s", queries, body)
	}
}
