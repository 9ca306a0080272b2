// Command ooebench regenerates every table and figure of the paper's
// evaluation section on this repository's substrate:
//
//	ooebench -table2    ω/θ/γ/π sets for *min = *max = a[0]
//	ooebench -table3    impure-call counter-example suppression
//	ooebench -table4    Polybench speedups
//	ooebench -table5    SPEC-shaped corpus analysis statistics
//	ooebench -table6    SPEC-shaped corpus runtime comparison
//	ooebench -fig2      nine SPEC case-study patterns
//	ooebench -intro     the two introduction examples
//	ooebench -ubsan     sanitizer sweep over every workload
//	ooebench -attribute per-function cycle deltas joined to π-pair provenance
//	ooebench -all       everything above
//
// ooebench -profile-kernel bicg -profile-cycles bicg.pb [-annotate]
// profiles one kernel's unseq-O3 run leg and writes a pprof protobuf
// cycle profile (plus an optional annotated source listing).
//
// Telemetry flags (-stats, -time-passes, -remarks, -metrics-json,
// -metrics-prom) attach a telemetry session to the OOElala-side
// compilations and runs; -json writes a BENCH_ooebench.json artifact
// with the table 4/6 rows. -profile-cpu and -profile-mem profile the
// whole run, and -crash-dir routes crash-<unit>.json flight-recorder
// dumps.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/ast"
	"repro/internal/driver"
	"repro/internal/ooe"
	"repro/internal/parser"
	"repro/internal/passes"
	"repro/internal/sanitizer"
	"repro/internal/sema"
	"repro/internal/telemetry"
	"repro/internal/telemetry/obsserver"
	"repro/internal/workload"
)

// tel is the process-wide telemetry session (nil = disabled).
var tel *telemetry.Session

// benchJSON is the -json artifact: the machine-readable rows of the
// runtime tables.
type benchJSON struct {
	Table4    []table4Row    `json:"table4,omitempty"`
	Table6    []table6Row    `json:"table6,omitempty"`
	Interproc []interprocRow `json:"interproc,omitempty"`
}

type table4Row struct {
	Kernel       string  `json:"kernel"`
	Speedup      float64 `json:"speedup"`
	PaperSpeedup float64 `json:"paperSpeedup"`
	Mechanism    string  `json:"mechanism"`
}

type table6Row struct {
	Bench         string  `json:"bench"`
	CyclesBase    float64 `json:"cyclesBase"`
	CyclesOOE     float64 `json:"cyclesOOElala"`
	DeltaPct      float64 `json:"deltaPct"`
	PaperDeltaPct float64 `json:"paperDeltaPct"`
}

// interprocRow is one inline-off A/B measurement: the same unseq-O3
// pipeline with call-site mod/ref resolved through bottom-up summaries
// vs. the legacy call barrier.
type interprocRow struct {
	Bench          string  `json:"bench"`
	CyclesBarrier  float64 `json:"cyclesBarrier"`
	CyclesSummary  float64 `json:"cyclesSummaries"`
	DeltaPct       float64 `json:"deltaPct"`
	SummaryNoAlias int     `json:"summaryNoAlias"`
	AuditedQueries int     `json:"auditedViaSummary"`
}

var benchOut benchJSON

func main() {
	t2 := flag.Bool("table2", false, "reproduce Table 2")
	t3 := flag.Bool("table3", false, "reproduce Table 3")
	t4 := flag.Bool("table4", false, "reproduce Table 4")
	t5 := flag.Bool("table5", false, "reproduce Table 5")
	t6 := flag.Bool("table6", false, "reproduce Table 6")
	ip := flag.Bool("interproc-ab", false,
		"run the inline-off interprocedural A/B: call-site mod/ref via bottom-up summaries vs the call barrier")
	f2 := flag.Bool("fig2", false, "reproduce Fig. 2 case studies")
	intro := flag.Bool("intro", false, "reproduce the introduction examples")
	ub := flag.Bool("ubsan", false, "run the sanitizer sweep (§4.2.3)")
	all := flag.Bool("all", false, "run everything")
	jsonOut := flag.Bool("json", false,
		"write table rows to BENCH_ooebench.json when -table4, -table6 or -interproc-ab runs")
	attr := flag.Bool("attribute", false,
		"profile every Table 4 kernel under both configurations, diff per-function cycles, join savings to π-pair provenance, write BENCH_attribution.json")
	profKernel := flag.String("profile-kernel", "",
		"compile and profile one Polybench kernel (e.g. bicg) under unseq-O3")
	profCycles := flag.String("profile-cycles", "",
		"write the -profile-kernel pprof cycle profile to the given path")
	annotateOut := flag.Bool("annotate", false,
		"print a perf-annotate-style source listing for -profile-kernel")
	jobs := flag.Int("j", 0, "per-function compilation parallelism (0 = GOMAXPROCS, 1 = sequential)")
	pf := driver.RegisterPassFlags(flag.CommandLine)
	tf := telemetry.RegisterFlags(flag.CommandLine)
	obs := obsserver.RegisterFlags(flag.CommandLine)
	flag.Parse()

	driver.SetDefaultJobs(*jobs)
	if err := pf.Apply(); err != nil {
		fatal(err)
	}
	driver.SetDefaultCrashDir(obs.CrashDir)
	tel = telemetry.New(tf.Config())
	obsHandle, err := obs.Start()
	if err != nil {
		fatal(err)
	}
	defer obsHandle.Close()
	any := false
	run := func(enabled bool, f func() error) {
		if !enabled && !*all {
			return
		}
		any = true
		if err := f(); err != nil {
			fatal(err)
		}
		fmt.Println()
	}

	run(*t2, table2)
	run(*t3, table3)
	run(*intro, introExamples)
	run(*t4, table4)
	run(*f2, fig2)
	run(*t5, table5)
	run(*t6, table6)
	run(*ip, interprocTable)
	run(*ub, ubsanSweep)
	run(*attr, attribute)
	if *profKernel != "" {
		any = true
		if err := profileOne(*profKernel, *profCycles, *annotateOut); err != nil {
			fatal(err)
		}
	}

	if !any {
		flag.Usage()
		obsserver.Exit(2)
	}
	if err := tf.Finish(tel, os.Stdout); err != nil {
		fatal(err)
	}
	// Only these tables fill benchOut; without one the file would be
	// overwritten with {}.
	if *jsonOut && (*t4 || *t6 || *ip || *all) {
		if err := writeBenchJSON("BENCH_ooebench.json"); err != nil {
			fatal(err)
		}
		fmt.Println("wrote BENCH_ooebench.json")
	}
}

// fatal exits through obsserver.Exit so an in-progress CPU profile is
// flushed even on error paths (every os.Exit here skips the deferred
// Close).
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ooebench:", err)
	obsserver.Exit(1)
}

func writeBenchJSON(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&benchOut); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// table2 prints the judgement sets for the paper's running example.
func table2() error {
	fmt.Println("== Table 2: sets for  *min = *max = a[0]  ==")
	src := "double a[16];\nvoid f(double *min, double *max) { *min = *max = a[0]; }"
	tu, perrs := parser.ParseFile("table2.c", src, nil)
	if len(perrs) > 0 {
		return perrs[0]
	}
	if errs := sema.Check(tu); len(errs) > 0 {
		return errs[0]
	}
	an := ooe.New(ooe.Config{}, ooe.FuncMap(tu))
	e := ast.FullExprs(tu.Funcs[0].Body)[0]
	r := an.AnalyzeExpr(e)

	type row struct {
		id   int
		text string
	}
	var rows []row
	ast.Walk(e, func(ex ast.Expr) { rows = append(rows, row{ex.ID(), ast.ExprString(ex)}) })
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	name := func(ids []int) string {
		s := "{"
		for i, id := range ids {
			if i > 0 {
				s += ", "
			}
			s += ast.ExprString(r.Expr(id))
		}
		return s + "}"
	}
	fmt.Printf("%-22s %-28s %-18s %-18s %s\n", "expression", "ω", "θ", "γ", "π")
	for _, rw := range rows {
		sets, ok := r.Sets(rw.id)
		if !ok {
			continue
		}
		pi := "{"
		for i, p := range sets.Pi.Sorted() {
			if i > 0 {
				pi += ", "
			}
			pi += "(" + ast.ExprString(r.Expr(p.A)) + "," + ast.ExprString(r.Expr(p.B)) + ")"
		}
		pi += "}"
		fmt.Printf("%-22s %-28s %-18s %-18s %s\n",
			rw.text, name(sets.Omega.Sorted()), name(sets.Theta.Sorted()),
			name(sets.Gamma.Sorted()), pi)
	}
	return nil
}

// table3 shows the impure-call override suppressing the unsound pair.
func table3() error {
	fmt.Println("== Table 3: impure-call counter-example ==")
	src := `int a = 0, b = 2;
int *foo() {
  if (a == 1) return &a;
  else return &b;
}
int main() { return (a = 1) + *foo(); }`
	tu, perrs := parser.ParseFile("table3.c", src, nil)
	if len(perrs) > 0 {
		return perrs[0]
	}
	if errs := sema.Check(tu); len(errs) > 0 {
		return errs[0]
	}
	an := ooe.New(ooe.Config{}, ooe.FuncMap(tu))
	for _, f := range tu.Funcs {
		if f.Name != "main" {
			continue
		}
		for _, rep := range an.AnalyzeFunction(f) {
			preds := an.Predicates(rep.Result)
			fmt.Printf("expression: %s\n", ast.ExprString(rep.Result.Root))
			fmt.Printf("predicates after impure-fun-call override: %d (paper: the (a, *foo()) pair must be suppressed)\n", len(preds))
		}
	}
	c, err := driver.Compile("table3.c", src, driver.Config{OOElala: true})
	if err != nil {
		return err
	}
	res, _, err := c.Run("")
	if err != nil {
		return err
	}
	fmt.Printf("compiled & run: result=%d (well-defined; 2 or 3 depending on the chosen OOE — our deterministic lowering evaluates left-to-right)\n", res)
	return nil
}

func introExamples() error {
	fmt.Println("== Introduction examples ==")
	for _, p := range []workload.Program{workload.IntroMinmax(256), workload.IntroImagick(6)} {
		ratio, _, err := driver.SpeedupWith(p.Name, p.Source, workload.Files(), nil, tel)
		if err != nil {
			return err
		}
		fmt.Printf("%-16s %-48s measured %.2fx   paper %.2fx\n",
			p.Name, p.Description, ratio, p.PaperSpeedup)
	}
	return nil
}

func table4() error {
	fmt.Println("== Table 4: Polybench speedups (annotated kernels) ==")
	fmt.Printf("%-12s %-10s %-10s %s\n", "kernel", "measured", "paper", "mechanism")
	for _, p := range workload.PolybenchKernels() {
		ratio, _, err := driver.SpeedupWith(p.Name, p.Source, workload.Files(), nil, tel)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %-10.2f %-10.2f %s\n", p.Name, ratio, p.PaperSpeedup, p.Description)
		benchOut.Table4 = append(benchOut.Table4, table4Row{
			Kernel: p.Name, Speedup: ratio, PaperSpeedup: p.PaperSpeedup,
			Mechanism: p.Description,
		})
	}
	return nil
}

func fig2() error {
	fmt.Println("== Fig. 2: SPEC CPU 2017 case-study patterns ==")
	fmt.Printf("%-20s %-10s %-12s %s\n", "case", "measured", "paper", "passes")
	for _, cs := range workload.Fig2CaseStudies() {
		ratio, _, err := driver.SpeedupWith(cs.Name, cs.Source, workload.Files(), cs.MeasureOpts(), tel)
		if err != nil {
			return err
		}
		paper := "n/a (not executed)"
		if cs.PaperImprovementPct > 0 {
			paper = fmt.Sprintf("+%.2f%%", cs.PaperImprovementPct)
		}
		fmt.Printf("%-20s %-10.3f %-12s %s\n", cs.Name, ratio, paper, cs.Passes)
	}
	return nil
}

func table5() error {
	fmt.Println("== Table 5: analysis statistics on the SPEC-shaped corpus ==")
	fmt.Printf("%-10s %6s %6s %8s %8s %8s %8s %10s %8s\n",
		"bench", "kloc*", "unseq", "initial", "final", "unique", "noalias", "queries", "q-incr%")
	for _, b := range workload.SpecSuite() {
		row, err := workload.MeasureTable5With(b, tel)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %6.1f %6d %8d %8d %8d %8d %10d %8.2f\n",
			b.Name, float64(row.GenLOC)/1000, row.UnseqExprs, row.InitialPreds,
			row.FinalPreds, row.UniquePreds, row.ExtraNoAlias, row.QueriesOOE,
			row.QueryIncreasePct())
	}
	fmt.Println("(*kloc of the generated scaled-down corpus; paper densities preserved — see EXPERIMENTS.md)")
	return nil
}

func table6() error {
	fmt.Println("== Table 6: runtime comparison on the SPEC-shaped corpus ==")
	fmt.Printf("%-10s %14s %14s %10s %10s\n", "bench", "base cycles", "ooelala", "delta%", "paper%")
	var base, ooeC, baseNP, ooeNP float64
	for _, b := range workload.SpecSuite() {
		row, err := workload.MeasureTable6With(b, tel)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %14.0f %14.0f %+10.3f %+10.3f\n",
			b.Name, row.CyclesBase, row.CyclesOOE, row.DeltaPct(), b.PaperDeltaPct)
		benchOut.Table6 = append(benchOut.Table6, table6Row{
			Bench: b.Name, CyclesBase: row.CyclesBase, CyclesOOE: row.CyclesOOE,
			DeltaPct: row.DeltaPct(), PaperDeltaPct: b.PaperDeltaPct,
		})
		base += row.CyclesBase
		ooeC += row.CyclesOOE
		if b.Name != "perlbench" {
			baseNP += row.CyclesBase
			ooeNP += row.CyclesOOE
		}
	}
	fmt.Printf("%-10s %14.0f %14.0f %+10.3f %+10.3f\n", "overall", base, ooeC,
		100*(base-ooeC)/base, 0.064)
	fmt.Printf("%-10s %14.0f %14.0f %+10.3f %+10.3f\n", "w/o perl", baseNP, ooeNP,
		100*(baseNP-ooeNP)/baseNP, 0.147)
	return nil
}

// noInlineOptions builds -O3 pass options with inlining defeated
// (threshold 0: every callee is over budget) and the summary tier
// toggled, so the A/B isolates call-site mod/ref resolution.
func noInlineOptions(interproc bool) *passes.Options {
	opts := passes.DefaultOptions()
	opts.InlineThreshold = 0
	opts.InterprocSummaries = interproc
	return &opts
}

// interprocTable measures the inline-off interprocedural kernels under
// both call-site disciplines. Both legs run the unseq-O3 pipeline; only
// how a call's mod/ref is answered differs. The audit column counts
// queries the summary provider issued that unseq-aa decided — the
// π-pairs-across-call-boundaries mechanism, observable end to end.
func interprocTable() error {
	fmt.Println("== Interprocedural A/B: summaries vs call barrier (inlining off) ==")
	fmt.Printf("%-10s %14s %14s %10s %10s %12s\n",
		"bench", "barrier", "summaries", "delta%", "π-noalias", "via-summary")
	for _, p := range workload.InterprocKernels() {
		bar, err := driver.Compile(p.Name, p.Source, driver.Config{
			OOElala: true, Files: workload.Files(), PassOptions: noInlineOptions(false),
		})
		if err != nil {
			return fmt.Errorf("%s barrier: %w", p.Name, err)
		}
		atel := telemetry.New(telemetry.Config{Metrics: true, Audit: true})
		sum, err := driver.Compile(p.Name, p.Source, driver.Config{
			OOElala: true, Files: workload.Files(), PassOptions: noInlineOptions(true),
			Telemetry: atel,
		})
		if err != nil {
			return fmt.Errorf("%s summaries: %w", p.Name, err)
		}
		rBar, cyBar, err := bar.Run("")
		if err != nil {
			return fmt.Errorf("%s barrier run: %w", p.Name, err)
		}
		rSum, cySum, err := sum.Run("")
		if err != nil {
			return fmt.Errorf("%s summaries run: %w", p.Name, err)
		}
		if rBar != rSum {
			return fmt.Errorf("%s MISCOMPILE: barrier=%d summaries=%d", p.Name, rBar, rSum)
		}
		audited := 0
		for _, q := range atel.Snapshot().AliasQueries {
			if q.ViaSummary && q.UnseqDecided {
				audited++
			}
		}
		row := interprocRow{
			Bench: p.Name, CyclesBarrier: cyBar, CyclesSummary: cySum,
			SummaryNoAlias: sum.AAStats.SummaryNoAlias, AuditedQueries: audited,
		}
		if cyBar > 0 {
			row.DeltaPct = 100 * (cyBar - cySum) / cyBar
		}
		benchOut.Interproc = append(benchOut.Interproc, row)
		fmt.Printf("%-10s %14.0f %14.0f %+10.3f %10d %12d\n",
			p.Name, cyBar, cySum, row.DeltaPct, row.SummaryNoAlias, audited)
	}
	return nil
}

func ubsanSweep() error {
	fmt.Println("== §4.2.3: sanitizer sweep over every workload ==")
	var programs []workload.Program
	programs = append(programs, workload.IntroMinmax(64), workload.IntroImagick(3))
	programs = append(programs, workload.PolybenchKernels()...)
	programs = append(programs, workload.ExtraPolybenchKernels()...)
	programs = append(programs,
		workload.RestrictScale(), workload.AnnotatedScale(), workload.PartialOverlapKernel())
	for _, cs := range workload.Fig2CaseStudies() {
		programs = append(programs, cs.Program)
	}
	for _, b := range workload.SpecSuite() {
		programs = append(programs, workload.GenerateUnits(b)...)
	}
	failures := 0
	checks := 0
	for _, p := range programs {
		rep, err := sanitizer.Check(p.Name, p.Source, workload.Files(), "", nil, tel)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		failures += len(rep.Failures)
		checks += rep.ChecksInserted
	}
	fmt.Printf("programs: %d, checks inserted: %d, assertion failures: %d (paper: 0 on all of SPEC)\n",
		len(programs), checks, failures)
	return nil
}
