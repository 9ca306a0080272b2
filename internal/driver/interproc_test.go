package driver_test

import (
	"testing"

	"repro/internal/driver"
	"repro/internal/passes"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// noInlineOpts builds -O3 options with inlining defeated (threshold 0:
// every callee is over budget), so calls survive into the mid-end and
// the interprocedural summary tier is what must answer for them.
func noInlineOpts(interproc bool, jobs int) *passes.Options {
	opts := passes.DefaultOptions()
	opts.UseUnseqAA = true
	opts.InlineThreshold = 0
	opts.InterprocSummaries = interproc
	opts.Jobs = jobs
	return &opts
}

func compileInterproc(t *testing.T, name, src string, interproc bool, tel *telemetry.Session) *driver.Compilation {
	t.Helper()
	c, err := driver.Compile(name, src, driver.Config{
		OOElala:     true,
		PassOptions: noInlineOpts(interproc, 1),
		Telemetry:   tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// leafDSESrc: the store x = 5 is dead — observe(&y) only reads y, and
// x = 7 overwrites before the final read — but only a summary-aware
// DSE can prove the intervening call does not read x. The final
// observe(&x) keeps x in memory (mem2reg cannot promote an escaping
// local), so the decision really is DSE's. The call-barrier
// configuration must keep the store.
const leafDSESrc = `
int observe(int *r) { return *r; }
int main(void) {
  int x = 1, y = 2;
  x = 5;
  int t = observe(&y);
  x = 7;
  return observe(&x) + t;
}
`

// TestDSEAcrossLeafCall is the leaf-callee regression test: DSE's
// blanket call clobber historically kept stores alive across calls
// that provably never read them.
func TestDSEAcrossLeafCall(t *testing.T) {
	on := compileInterproc(t, "dse.c", leafDSESrc, true, nil)
	off := compileInterproc(t, "dse.c", leafDSESrc, false, nil)

	if on.PassStats.StoresDeleted <= off.PassStats.StoresDeleted {
		t.Errorf("summaries did not unlock DSE across the leaf call: on=%d off=%d",
			on.PassStats.StoresDeleted, off.PassStats.StoresDeleted)
	}
	rOn, _, err := on.Run("")
	if err != nil {
		t.Fatal(err)
	}
	rOff, _, err := off.Run("")
	if err != nil {
		t.Fatal(err)
	}
	if rOn != rOff || rOn != 9 {
		t.Errorf("results diverge: interproc=%d barrier=%d, want 9", rOn, rOff)
	}
}

// licmPiSrc: inside kernel, basic-aa cannot separate *pa from *pb (same
// allocation, opaque indices), and bump is an out-of-line call — only
// the π fact carried through the summary tier lets LICM move the *pa
// load out of the loop.
const licmPiSrc = `
#define CANT_ALIAS2(a, b) ((a = a) + (b = b))
void bump(int *q, int k) { *q = *q + k; }
int kernel(int *pa, int *pb, int n) {
  CANT_ALIAS2(*pa, *pb);
  int s = 0;
  for (int i = 0; i < n; i++) { s += *pa; bump(pb, i); }
  return s;
}
int main(void) {
  int A[16];
  for (int i = 0; i < 16; i++) A[i] = i;
  return kernel(&A[2], &A[9], 8);
}
`

// TestLICMAcrossCallWithPi: the summary-tier call-site query must be
// decided by unseq-aa (counted in SummaryNoAlias), unlock LICM work the
// barrier build cannot do, and leave ViaSummary-flagged entries in the
// audit log carrying the π provenance.
func TestLICMAcrossCallWithPi(t *testing.T) {
	tel := telemetry.New(telemetry.Config{Audit: true, Remarks: true})
	on := compileInterproc(t, "licmpi.c", licmPiSrc, true, tel)
	off := compileInterproc(t, "licmpi.c", licmPiSrc, false, nil)

	if on.AAStats.SummaryNoAlias == 0 {
		t.Error("no call-site queries answered NoAlias through summaries")
	}
	hoistOn := on.PassStats.LICMHoisted + on.PassStats.LICMPromoted
	hoistOff := off.PassStats.LICMHoisted + off.PassStats.LICMPromoted
	if hoistOn <= hoistOff {
		t.Errorf("π-through-summary unlocked no LICM: on=%d off=%d", hoistOn, hoistOff)
	}

	snap := tel.Snapshot()
	viaSummary, unseqVia := 0, 0
	for _, q := range snap.AliasQueries {
		if q.ViaSummary {
			viaSummary++
			if q.UnseqDecided {
				unseqVia++
				if q.PredicateMeta == 0 {
					t.Errorf("summary-decided query lacks π provenance: %+v", q)
				}
			}
		}
	}
	if viaSummary == 0 {
		t.Error("audit log has no ViaSummary entries")
	}
	if unseqVia == 0 {
		t.Error("no summary query was decided by a π fact")
	}

	rOn, _, err := on.Run("")
	if err != nil {
		t.Fatal(err)
	}
	rOff, _, err := off.Run("")
	if err != nil {
		t.Fatal(err)
	}
	if rOn != rOff {
		t.Errorf("results diverge: interproc=%d barrier=%d", rOn, rOff)
	}
}

// auditIPSrc is the CANT_ALIAS2 + bump program with the real
// ooelala.h header: two locals whose addresses only meet in kernel,
// where a call to bump sits in the loop next to the annotated load.
const auditIPSrc = `#include "ooelala.h"
void bump(int *q, int k) { *q = *q + k; }
int kernel(int *pa, int *pb, int n) {
  CANT_ALIAS2(*pa, *pb);
  int s = 0;
  for (int i = 0; i < n; i++) { s += *pa; bump(pb, i); }
  return s;
}
int main(void) { int a = 3, b = 0; return kernel(&a, &b, 10); }
`

// TestAuditRoutesQueriesViaSummaries: with inlining off, the alias
// audit log must show call-site queries resolved through the summary
// tier, and at least one of them decided by a π fact.
func TestAuditRoutesQueriesViaSummaries(t *testing.T) {
	tel := telemetry.New(telemetry.Config{Audit: true})
	if _, err := driver.Compile("ip.c", auditIPSrc, driver.Config{
		OOElala:     true,
		Files:       workload.Files(),
		PassOptions: noInlineOpts(true, 1),
		Telemetry:   tel,
	}); err != nil {
		t.Fatal(err)
	}
	viaSummary, unseqVia := 0, 0
	for _, q := range tel.Snapshot().AliasQueries {
		if q.ViaSummary {
			viaSummary++
			if q.UnseqDecided {
				unseqVia++
			}
		}
	}
	if viaSummary == 0 {
		t.Error("audit log has no ViaSummary entries")
	}
	if unseqVia == 0 {
		t.Error("no ViaSummary entry was decided by unseq-aa")
	}
}

// TestSummaryNoAliasReconciles: SummaryNoAlias is a refinement of the
// NoAlias total — every summary-decided answer is also counted there.
func TestSummaryNoAliasReconciles(t *testing.T) {
	c := compileInterproc(t, "licmpi.c", licmPiSrc, true, nil)
	if c.AAStats.SummaryNoAlias == 0 {
		t.Fatal("expected summary-decided NoAlias answers")
	}
	if c.AAStats.SummaryNoAlias > c.AAStats.NoAlias {
		t.Errorf("SummaryNoAlias %d exceeds NoAlias %d", c.AAStats.SummaryNoAlias, c.AAStats.NoAlias)
	}
}

// TestInterprocJobsByteIdentity: summaries are computed once from the
// pre-pipeline module, so the parallel executor must emit byte-for-byte
// the IR the sequential oracle emits on a call-heavy unit.
func TestInterprocJobsByteIdentity(t *testing.T) {
	const src = `
#define CANT_ALIAS2(a, b) ((a = a) + (b = b))
int g;
void bump(int *q, int k) { *q = *q + k; g = g + 1; }
int sum(int *p, int n) { int s = 0; for (int i = 0; i < n; i++) s += p[i]; return s; }
int kernel(int *pa, int *pb, int n) {
  CANT_ALIAS2(*pa, *pb);
  int s = 0;
  for (int i = 0; i < n; i++) { s += *pa; bump(pb, i); }
  return s;
}
int main(void) {
  int A[16];
  for (int i = 0; i < 16; i++) A[i] = i;
  return kernel(&A[1], &A[7], 8) + sum(A, 16) + g;
}
`
	var texts [2]string
	var results [2]int64
	for i, jobs := range []int{1, 4} {
		c, err := driver.Compile("jobs.c", src, driver.Config{
			OOElala:     true,
			PassOptions: noInlineOpts(true, jobs),
		})
		if err != nil {
			t.Fatal(err)
		}
		texts[i] = c.Module.String()
		if results[i], _, err = c.Run(""); err != nil {
			t.Fatal(err)
		}
	}
	if texts[0] != texts[1] {
		t.Error("-j1 and -j4 IR diverge with summaries enabled")
	}
	if results[0] != results[1] {
		t.Errorf("results diverge: j1=%d j4=%d", results[0], results[1])
	}
}

// TestPrintCallGraphSummariesGolden pins the -print-callgraph and
// -print-summaries renderings on a three-function example.
func TestPrintCallGraphSummariesGolden(t *testing.T) {
	const src = `
int g;
int leaf(int *p, int k) { *p = *p + k; return g; }
int mid(int *a, int *b) { return leaf(a, 1) + *b; }
int main(void) { int x = 3, y = 4; g = 2; return mid(&x, &y); }
`
	c, err := driver.Compile("three.c", src, driver.Config{
		OOElala: true, DumpCallGraph: true, DumpSummaries: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCG := `callgraph:
  leaf -> (leaf)
  mid -> leaf
  main -> mid
bottom-up SCC order:
  scc 0: {leaf}
  scc 1: {mid}
  scc 2: {main}
`
	if c.CallGraphText != wantCG {
		t.Errorf("-print-callgraph drifted:\n got:\n%s\nwant:\n%s", c.CallGraphText, wantCG)
	}
	wantSums := `summaries:
  leaf: params[p: mod+ref(4B i32), k: none] globals[@g: ref] unknown: none
  main: params[] globals[@g: mod+ref] unknown: none
  mid: params[a: mod+ref(4B i32), b: ref(4B i32)] globals[@g: ref] unknown: none
`
	if c.SummariesText != wantSums {
		t.Errorf("-print-summaries drifted:\n got:\n%s\nwant:\n%s", c.SummariesText, wantSums)
	}
}
