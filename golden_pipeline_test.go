package repro_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/passes"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// -update regenerates the golden pipeline artifacts from the current
// compiler. The committed files were produced by the pre-pass-manager
// pipeline, so a clean diff against them is the behaviour-preservation
// proof the refactor must supply.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden artifacts")

// goldenPrograms is every committed program the equivalence gate covers:
// the minimized fuzzer regressions plus the paper's §2 example.
func goldenPrograms(t *testing.T) []string {
	t.Helper()
	progs, err := filepath.Glob("testdata/fuzz/regressions/*.c")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(progs)
	return append(progs, "examples/minmax.c")
}

// pipelineArtifact renders everything the acceptance criteria require to
// be byte-identical across the refactor and across -j values: the
// optimized IR, the pass/AA statistics, the optimization remarks, and
// the alias-query audit log. Wall-clock data is deliberately excluded.
// With audit off the session keeps no audit log and the artifact ends
// before the audit section.
func pipelineArtifact(t *testing.T, path string, jobs int, audit bool) string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(telemetry.Config{Metrics: true, Remarks: true, Audit: audit})
	c, err := driver.Compile(path, string(src), driver.Config{
		OOElala:   true,
		Files:     workload.Files(),
		Jobs:      jobs,
		Telemetry: tel,
	})
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	snap := tel.Snapshot()

	var buf bytes.Buffer
	fmt.Fprintf(&buf, "== ir ==\n%s", c.Module.String())
	fmt.Fprintf(&buf, "== stats ==\npasses: %s\n", c.PassStats)
	fmt.Fprintf(&buf, "aa: queries=%d noalias=%d mayalias=%d mustalias=%d partial=%d unseq=%d\n",
		c.AAStats.Queries, c.AAStats.NoAlias, c.AAStats.MayAlias,
		c.AAStats.MustAlias, c.AAStats.PartialAlias, c.AAStats.UnseqNoAlias)
	fmt.Fprintf(&buf, "preds: final=%d unique=%d\n", c.FinalPreds, c.UniqueFinalPreds)
	fmt.Fprintf(&buf, "== remarks ==\n")
	enc := json.NewEncoder(&buf)
	for _, r := range snap.Remarks {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	if !audit {
		return buf.String()
	}
	fmt.Fprintf(&buf, "== audit ==\n")
	if err := telemetry.WriteAuditJSON(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func goldenPath(prog string) string {
	base := filepath.Base(prog)
	return filepath.Join("testdata", "golden", base[:len(base)-len(".c")]+".golden")
}

// TestGoldenDefaultPipeline compares the default pipeline's full
// observable output (IR, stats, remarks, audit) against the committed
// pre-refactor artifacts, at -j1 and -j4.
func TestGoldenDefaultPipeline(t *testing.T) {
	for _, prog := range goldenPrograms(t) {
		prog := prog
		t.Run(filepath.Base(prog), func(t *testing.T) {
			got := pipelineArtifact(t, prog, 1, true)
			gp := goldenPath(prog)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(gp), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(gp, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(gp)
			if err != nil {
				t.Fatalf("missing golden (run go test -run TestGoldenDefaultPipeline -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("pipeline output for %s diverges from the committed golden (j=1)", prog)
			}
			if got4 := pipelineArtifact(t, prog, 4, true); got4 != string(want) {
				t.Errorf("pipeline output for %s diverges from the committed golden (j=4)", prog)
			}
		})
	}
}

// TestGoldenAuditOff checks that arming the alias-query audit log is
// observation only: compiles without it reproduce the committed
// goldens' IR, stats and remarks sections, at -j1 and -j4.
func TestGoldenAuditOff(t *testing.T) {
	for _, prog := range goldenPrograms(t) {
		prog := prog
		t.Run(filepath.Base(prog), func(t *testing.T) {
			golden, err := os.ReadFile(goldenPath(prog))
			if err != nil {
				t.Fatal(err)
			}
			want, _, ok := strings.Cut(string(golden), "== audit ==\n")
			if !ok {
				t.Fatalf("%s has no audit section", goldenPath(prog))
			}
			for _, jobs := range []int{1, 4} {
				if got := pipelineArtifact(t, prog, jobs, false); got != want {
					t.Errorf("audit-off output for %s diverges from the committed golden (j=%d)", prog, jobs)
				}
			}
		})
	}
}

// TestInterprocBarrierEquivalence runs every golden program with
// inlining off, once with call sites resolved through interprocedural
// summaries and once behind the blanket call barrier. The results must
// agree; the cycle counts differ by design.
func TestInterprocBarrierEquivalence(t *testing.T) {
	for _, prog := range goldenPrograms(t) {
		prog := prog
		t.Run(filepath.Base(prog), func(t *testing.T) {
			src, err := os.ReadFile(prog)
			if err != nil {
				t.Fatal(err)
			}
			var results [2]int64
			for i, interproc := range []bool{true, false} {
				opts := passes.DefaultOptions()
				opts.InlineThreshold = 0
				opts.InterprocSummaries = interproc
				c, err := driver.Compile(prog, string(src), driver.Config{
					OOElala:     true,
					Files:       workload.Files(),
					PassOptions: &opts,
				})
				if err != nil {
					t.Fatalf("interproc=%v: %v", interproc, err)
				}
				if results[i], _, err = c.Run(""); err != nil {
					t.Fatalf("interproc=%v: %v", interproc, err)
				}
			}
			if results[0] != results[1] {
				t.Errorf("summaries result %d, barrier result %d", results[0], results[1])
			}
		})
	}
}
