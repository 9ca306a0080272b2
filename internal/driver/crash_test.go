package driver

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/telemetry"
)

// -update regenerates the committed crash-dump golden from the current
// compiler (mirrors the repo-root golden pipeline artifacts).
var updateCrashGolden = flag.Bool("update", false, "rewrite testdata/crash golden artifacts")

// crashyPass panics on functions matching the prefix — the injected
// compiler fault the crash flight recorder must turn into a dump.
type crashyPass struct{ prefix string }

func (crashyPass) Name() string { return "panicpass" }
func (p crashyPass) Run(f *ir.Func, am *passes.AnalysisManager) (passes.Stats, passes.Preserved) {
	if strings.HasPrefix(f.Name, p.prefix) {
		panic("injected failure in " + f.Name)
	}
	return passes.Stats{}, passes.PreserveNone
}

// crashOpts appends the injected pass to the default pipeline.
func crashOpts(prefix string, jobs int) *passes.Options {
	opts := passes.DefaultOptions()
	opts.Pipeline = passes.NewPipeline(append(passes.DefaultPipeline().Passes(), crashyPass{prefix: prefix})...)
	opts.Jobs = jobs
	return &opts
}

// crashSrc has unsequenced side effects (so π provenance exists), a few
// healthy functions ahead of the victim (so the flight ring is well fed
// before the panic), and the panicking function last in source order.
const crashSrc = `
int g;
int a0(int x) { int a = 0, b = 0; int r = (a = x) + (b = 2); return r + a + b; }
int a1(int x) { int s = 0; for (int i = 0; i < 8; i++) s += i * x; return s; }
int a2(int x) { return a0(x) + a1(x); }
int zz_boom(int x) { return x - 3; }
int main() { g = a2(4); return g + zz_boom(1); }
`

func TestCrashDumpOnPassPanic(t *testing.T) {
	dir := t.TempDir()
	tel := telemetry.New(telemetry.Config{Metrics: true, Audit: true, Flight: true})
	_, err := Compile("crashy.c", crashSrc, Config{
		OOElala:     true,
		Jobs:        1,
		Telemetry:   tel,
		CrashDir:    dir,
		PassOptions: crashOpts("zz_", 1),
	})
	if err == nil {
		t.Fatal("injected pass panic did not fail the compile")
	}
	var pe *passes.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T, want to wrap *PanicError: %v", err, err)
	}
	path := filepath.Join(dir, "crash-crashy.c.json")
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("error %q does not name the dump %s", err.Error(), path)
	}
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatalf("crash dump not written: %v", rerr)
	}
	var d telemetry.CrashDump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("crash dump is not valid JSON: %v", err)
	}
	if d.Schema != telemetry.CrashSchema {
		t.Fatalf("schema = %q, want %q", d.Schema, telemetry.CrashSchema)
	}
	if d.Unit != "crashy.c" || d.Function != "zz_boom" || d.Pass != "panicpass" {
		t.Fatalf("attribution = (%q, %q, %q), want (crashy.c, zz_boom, panicpass)",
			d.Unit, d.Function, d.Pass)
	}
	if !strings.Contains(d.Panic, "injected failure in zz_boom") {
		t.Fatalf("panic value lost: %q", d.Panic)
	}
	if len(d.Flight) < 32 {
		t.Fatalf("flight recording has %d events, want >= 32", len(d.Flight))
	}
	if d.FlightTotal < uint64(len(d.Flight)) {
		t.Fatalf("FlightTotal %d < ring size %d", d.FlightTotal, len(d.Flight))
	}
	for i := 1; i < len(d.Flight); i++ {
		if d.Flight[i-1].Seq >= d.Flight[i].Seq {
			t.Fatalf("flight events out of order at %d", i)
		}
	}
	// The panic marker is in the ring (functions after the victim still
	// ran — keep-going semantics — so it need not be the final event).
	sawPanic := false
	for _, ev := range d.Flight {
		if ev.Kind == "panic" && ev.Func == "zz_boom" && ev.Name == "panicpass" {
			sawPanic = true
		}
	}
	if !sawPanic {
		t.Fatalf("no panic marker for zz_boom in the flight recording: %+v", d.Flight)
	}
	if len(d.Stack) == 0 {
		t.Fatal("dump carries no stack")
	}
	if len(d.AuditTail) == 0 {
		t.Fatal("dump carries no alias-query audit tail (Audit was enabled)")
	}
	if len(d.Provenance) == 0 {
		t.Fatal("dump carries no π provenance (source has unsequenced side effects)")
	}
}

// Without a telemetry session the dump still attributes the panic —
// the flight recording is just empty.
func TestCrashDumpWithoutTelemetry(t *testing.T) {
	dir := t.TempDir()
	_, err := Compile("bare.c", crashSrc, Config{
		OOElala:     true,
		Jobs:        1,
		CrashDir:    dir,
		PassOptions: crashOpts("zz_", 1),
	})
	if err == nil {
		t.Fatal("panic swallowed")
	}
	data, rerr := os.ReadFile(filepath.Join(dir, "crash-bare.c.json"))
	if rerr != nil {
		t.Fatalf("crash dump not written: %v", rerr)
	}
	var d telemetry.CrashDump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if d.Function != "zz_boom" || d.Pass != "panicpass" || len(d.Flight) != 0 {
		t.Fatalf("bare dump wrong: %+v", d)
	}
}

// The committed golden keeps the dump schema honest; volatile fields
// (timestamps, stack) are normalized. The schema contract is asserted
// on the decoded dump before the byte compare, so -update cannot commit
// a golden that breaks it.
func TestCrashDumpGolden(t *testing.T) {
	dir := t.TempDir()
	tel := telemetry.New(telemetry.Config{Flight: true})
	_, err := Compile("crashy.c", crashSrc, Config{
		OOElala:     true,
		Jobs:        1,
		Telemetry:   tel,
		CrashDir:    dir,
		PassOptions: crashOpts("zz_", 1),
	})
	if err == nil {
		t.Fatal("panic swallowed")
	}
	data, rerr := os.ReadFile(filepath.Join(dir, "crash-crashy.c.json"))
	if rerr != nil {
		t.Fatal(rerr)
	}
	var d telemetry.CrashDump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	checkCrashSchema(t, &d)
	for i := range d.Flight {
		d.Flight[i].TUS = 0
	}
	d.Stack = []string{"<stack>"}
	norm, err := json.MarshalIndent(&d, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	norm = append(norm, '\n')

	golden := filepath.Join("testdata", "crash", "crash-crashy.c.json")
	if *updateCrashGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, norm, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if string(want) != string(norm) {
		t.Fatalf("crash dump drifted from golden (regenerate with -update if intended)\n-- got --\n%s\n-- want --\n%s",
			norm, want)
	}
}

// checkCrashSchema asserts the ooelala-crash/v1 contract external
// consumers of the golden rely on.
func checkCrashSchema(t *testing.T, d *telemetry.CrashDump) {
	t.Helper()
	if d.Schema != "ooelala-crash/v1" {
		t.Errorf("schema = %q, want ooelala-crash/v1", d.Schema)
	}
	if d.Unit != "crashy.c" || d.Function != "zz_boom" || d.Pass != "panicpass" {
		t.Errorf("attribution = (%q, %q, %q), want (crashy.c, zz_boom, panicpass)", d.Unit, d.Function, d.Pass)
	}
	if !strings.Contains(d.Panic, "injected failure") {
		t.Errorf("panic text %q lacks the injected failure", d.Panic)
	}
	if len(d.Flight) < 32 || d.FlightTotal < uint64(len(d.Flight)) {
		t.Errorf("flight holds %d events of %d recorded, want >= 32 and total >= held", len(d.Flight), d.FlightTotal)
	}
	panicEv := false
	for i, ev := range d.Flight {
		if i > 0 && d.Flight[i-1].Seq >= ev.Seq {
			t.Errorf("flight seq not strictly increasing at %d: %d then %d", i, d.Flight[i-1].Seq, ev.Seq)
		}
		if ev.Kind == "panic" && ev.Func == "zz_boom" {
			panicEv = true
		}
	}
	if !panicEv {
		t.Error("flight recording has no panic event for zz_boom")
	}
}

// A clean compile of the golden corpus writes no crash dumps.
func TestCleanRunWritesNoCrashDumps(t *testing.T) {
	progs, err := filepath.Glob("../../testdata/fuzz/regressions/*.c")
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) == 0 {
		t.Fatal("no regression programs found")
	}
	progs = append(progs, "../../examples/minmax.c")
	dir := t.TempDir()
	for _, prog := range progs {
		src, err := os.ReadFile(prog)
		if err != nil {
			t.Fatal(err)
		}
		tel := telemetry.New(telemetry.Config{Metrics: true, Audit: true, Flight: true})
		if _, err := Compile(filepath.Base(prog), string(src), Config{
			OOElala: true, Jobs: 4, Telemetry: tel, CrashDir: dir,
		}); err != nil {
			t.Fatalf("%s: %v", prog, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("unexpected crash dump from a clean run: %s", e.Name())
	}
}

// A panicking unit must not cancel its siblings: CompileAll keeps
// compiling everything else and reports the panic in unit order.
func TestCompileAllKeepsGoingAfterPanic(t *testing.T) {
	dir := t.TempDir()
	units := []Unit{
		{Name: "bad.c", Source: "int boom_f(int x) { return x + 1; }\nint main() { return boom_f(1); }"},
		{Name: "ok1.c", Source: "int main() { return 41; }"},
		{Name: "ok2.c", Source: "int f(int x) { return x * 2; }\nint main() { return f(21); }"},
	}
	out, err := CompileAll(context.Background(), units, Config{
		OOElala:     true,
		Jobs:        2,
		CrashDir:    dir,
		PassOptions: crashOpts("boom_", 1),
	})
	if err == nil {
		t.Fatal("panic in bad.c not reported")
	}
	var pe *passes.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("aggregate error hides the PanicError: %v", err)
	}
	if out[0] != nil {
		t.Fatal("panicking unit produced a compilation")
	}
	if out[1] == nil || out[2] == nil {
		t.Fatalf("sibling units were cancelled: %v, %v (err %v)", out[1], out[2], err)
	}
	if _, serr := os.Stat(filepath.Join(dir, "crash-bad.c.json")); serr != nil {
		t.Fatalf("no crash dump for the panicking unit: %v", serr)
	}
}

func TestSetDefaultCrashDir(t *testing.T) {
	dir := t.TempDir()
	SetDefaultCrashDir(dir)
	defer SetDefaultCrashDir("")
	_, err := Compile("defdir.c", crashSrc, Config{
		OOElala:     true,
		Jobs:        1,
		PassOptions: crashOpts("zz_", 1),
	})
	if err == nil {
		t.Fatal("panic swallowed")
	}
	if _, serr := os.Stat(filepath.Join(dir, "crash-defdir.c.json")); serr != nil {
		t.Fatalf("dump not routed to the process-default dir: %v", serr)
	}
}

func TestCrashDumpNameSanitized(t *testing.T) {
	if got := crashDumpName("a/b\\c:d.c"); got != "crash-a_b_c_d.c.json" {
		t.Fatalf("crashDumpName = %q", got)
	}
	if got := crashDumpName(""); got != "crash-unknown.json" {
		t.Fatalf("crashDumpName(\"\") = %q", got)
	}
}
