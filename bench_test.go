// Package repro_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (see EXPERIMENTS.md for the
// recorded paper-vs-measured comparison). Each benchmark reports the
// relevant quantity as a custom metric:
//
//	speedup            baseline cycles / OOElala cycles (Tables 4, Fig. 2)
//	cycles_base/_ooe   simulated cycle counts (Table 6)
//	preds, noalias     analysis statistics (Table 5)
//
// Wall-clock ns/op measures this host's compile+simulate time and is NOT
// the paper's metric; the custom metrics are.
package repro_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/annotate"
	"repro/internal/ast"
	"repro/internal/driver"
	"repro/internal/ooe"
	"repro/internal/parser"
	"repro/internal/passes"
	"repro/internal/sanitizer"
	"repro/internal/sema"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// speedupOf compiles and runs p under both configurations.
func speedupOf(b *testing.B, name, src string, popts *passes.Options) float64 {
	b.Helper()
	ratio, _, err := driver.Speedup(name, src, workload.Files(), popts)
	if err != nil {
		b.Fatal(err)
	}
	return ratio
}

// BenchmarkTable2Analysis measures the core Fig. 1 analysis on the
// paper's running example *min = *max = a[0] (Table 2).
func BenchmarkTable2Analysis(b *testing.B) {
	src := "double a[16];\nvoid f(double *min, double *max) { *min = *max = a[0]; }"
	tu, perrs := parser.ParseFile("t2.c", src, nil)
	if len(perrs) > 0 {
		b.Fatal(perrs[0])
	}
	if errs := sema.Check(tu); len(errs) > 0 {
		b.Fatal(errs[0])
	}
	an := ooe.New(ooe.Config{}, ooe.FuncMap(tu))
	e := ast.FullExprs(tu.Funcs[0].Body)[0]
	b.ResetTimer()
	var preds int
	for i := 0; i < b.N; i++ {
		r := an.AnalyzeExpr(e)
		preds = len(an.Predicates(r))
	}
	b.ReportMetric(float64(preds), "preds")
}

// BenchmarkTable3Override measures the impure-call override on the
// counter-example program (Table 3); the metric must stay at 0 predicates.
func BenchmarkTable3Override(b *testing.B) {
	src := `int a = 0, b = 2;
int *foo() { if (a == 1) return &a; else return &b; }
int main() { return (a = 1) + *foo(); }`
	tu, perrs := parser.ParseFile("t3.c", src, nil)
	if len(perrs) > 0 {
		b.Fatal(perrs[0])
	}
	if errs := sema.Check(tu); len(errs) > 0 {
		b.Fatal(errs[0])
	}
	an := ooe.New(ooe.Config{}, ooe.FuncMap(tu))
	var mainFn *ast.FuncDecl
	for _, f := range tu.Funcs {
		if f.Name == "main" {
			mainFn = f
		}
	}
	b.ResetTimer()
	preds := 0
	for i := 0; i < b.N; i++ {
		for _, rep := range an.AnalyzeFunction(mainFn) {
			preds += len(rep.Predicates)
		}
	}
	b.ReportMetric(float64(preds), "unsound_preds")
}

// BenchmarkIntroMinmax reproduces the paper's 1.5x introduction example.
func BenchmarkIntroMinmax(b *testing.B) {
	p := workload.IntroMinmax(256)
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = speedupOf(b, p.Name, p.Source, nil)
	}
	b.ReportMetric(ratio, "speedup")
	b.ReportMetric(p.PaperSpeedup, "paper_speedup")
}

// BenchmarkIntroImagick reproduces the paper's 1.66x kernel-init example.
func BenchmarkIntroImagick(b *testing.B) {
	p := workload.IntroImagick(6)
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = speedupOf(b, p.Name, p.Source, nil)
	}
	b.ReportMetric(ratio, "speedup")
	b.ReportMetric(p.PaperSpeedup, "paper_speedup")
}

// BenchmarkTable4 regenerates the Polybench speedup row for each kernel.
func BenchmarkTable4(b *testing.B) {
	for _, p := range workload.PolybenchKernels() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				ratio = speedupOf(b, p.Name, p.Source, nil)
			}
			b.ReportMetric(ratio, "speedup")
			b.ReportMetric(p.PaperSpeedup, "paper_speedup")
		})
	}
}

// BenchmarkFig2 regenerates the nine SPEC case-study measurements.
func BenchmarkFig2(b *testing.B) {
	for _, cs := range workload.Fig2CaseStudies() {
		cs := cs
		b.Run(cs.Name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				ratio = speedupOf(b, cs.Name, cs.Source, cs.MeasureOpts())
			}
			b.ReportMetric(ratio, "speedup")
			b.ReportMetric(cs.PaperImprovementPct, "paper_pct")
		})
	}
}

// BenchmarkTable5 regenerates the per-benchmark analysis statistics on
// the SPEC-shaped corpus.
func BenchmarkTable5(b *testing.B) {
	for _, bench := range workload.SpecSuite() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			var row workload.Table5Row
			var err error
			for i := 0; i < b.N; i++ {
				row, err = workload.MeasureTable5(bench)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(row.UnseqExprs), "unseq_exprs")
			b.ReportMetric(float64(row.InitialPreds), "initial_preds")
			b.ReportMetric(float64(row.FinalPreds), "final_preds")
			b.ReportMetric(float64(row.UniquePreds), "unique_preds")
			b.ReportMetric(float64(row.ExtraNoAlias), "extra_noalias")
			b.ReportMetric(row.QueryIncreasePct(), "query_incr_pct")
		})
	}
}

// BenchmarkTable6 regenerates the runtime comparison on the SPEC-shaped
// corpus.
func BenchmarkTable6(b *testing.B) {
	for _, bench := range workload.SpecSuite() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			var row workload.Table6Row
			var err error
			for i := 0; i < b.N; i++ {
				row, err = workload.MeasureTable6(bench)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.CyclesBase, "cycles_base")
			b.ReportMetric(row.CyclesOOE, "cycles_ooe")
			b.ReportMetric(row.DeltaPct(), "delta_pct")
			b.ReportMetric(bench.PaperDeltaPct, "paper_delta_pct")
		})
	}
}

// BenchmarkUBSanSweep regenerates the §4.2.3 sanitizer experiment: zero
// assertion failures across every workload.
func BenchmarkUBSanSweep(b *testing.B) {
	var programs []workload.Program
	programs = append(programs, workload.IntroMinmax(64), workload.IntroImagick(3))
	programs = append(programs, workload.PolybenchKernels()...)
	for _, cs := range workload.Fig2CaseStudies() {
		programs = append(programs, cs.Program)
	}
	failures := 0
	for i := 0; i < b.N; i++ {
		failures = 0
		for _, p := range programs {
			rep, err := sanitizer.Check(p.Name, p.Source, workload.Files(), "", nil, nil)
			if err != nil {
				b.Fatalf("%s: %v", p.Name, err)
			}
			failures += len(rep.Failures)
		}
	}
	b.ReportMetric(float64(failures), "assertion_failures")
}

// BenchmarkCompileOverhead measures the compile-time cost of the
// analysis; the paper reports < 2% (ours is higher in relative terms
// because the whole compiler is smaller, but the metric records it).
func BenchmarkCompileOverhead(b *testing.B) {
	p := workload.Bicg()
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := driver.Compile(p.Name, p.Source, driver.Config{
				OOElala: false, Files: workload.Files()}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ooelala", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := driver.Compile(p.Name, p.Source, driver.Config{
				OOElala: true, Files: workload.Files()}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationVersioning quantifies DESIGN.md §5's loop-versioning
// budget: with the memcheck budget forced to zero even for the OOElala
// configuration, the vectorizer loses the imagick-style wins.
func BenchmarkAblationVersioning(b *testing.B) {
	p := workload.IntroImagick(6)
	withOpts := passes.DefaultOptions()
	noVersion := passes.DefaultOptions()
	noVersion.MemcheckThreshold = 0
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = speedupOf(b, p.Name, p.Source, &withOpts)
		without = speedupOf(b, p.Name, p.Source, &noVersion)
	}
	b.ReportMetric(with, "speedup_with_versioning")
	b.ReportMetric(without, "speedup_without")
}

// BenchmarkAblationAAChain compares the full AA chain against unseq-aa
// alone (no basic-aa object reasoning, approximated by disabling the
// unseq facts instead — the measurable half of the ablation) on bicg.
func BenchmarkAblationAAChain(b *testing.B) {
	p := workload.Bicg()
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = speedupOf(b, p.Name, p.Source, nil)
	}
	b.ReportMetric(ratio, "chain_speedup")
}

// BenchmarkAnalysisThroughput measures raw analysis speed over every
// SPEC-shaped unit of the default draw, reported per full expression
// (the paper cites a <2% compile-time cost for the analysis).
func BenchmarkAnalysisThroughput(b *testing.B) {
	type unit struct {
		tu *ast.TranslationUnit
		an *ooe.Analyzer
	}
	var units []unit
	exprs := 0
	for _, bench := range workload.SpecSuite() {
		for _, p := range workload.GenerateUnits(bench) {
			tu, perrs := parser.ParseFile(p.Name, p.Source, workload.Files())
			if len(perrs) > 0 {
				b.Fatal(perrs[0])
			}
			if errs := sema.Check(tu); len(errs) > 0 {
				b.Fatal(errs[0])
			}
			an := ooe.New(ooe.Config{}, ooe.FuncMap(tu))
			exprs += len(an.AnalyzeUnit(tu))
			units = append(units, unit{tu, an})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range units {
			_ = u.an.AnalyzeUnit(u.tu)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*exprs), "ns/fullexpr")
}

// BenchmarkAblationGammaClear quantifies DESIGN.md §5's sequencing rule:
// with γ-clearing disabled (UNSOUND, test-only) the analysis produces
// extra pairs on sequence-point-heavy code. The metric reports the pair
// counts under both configurations.
func BenchmarkAblationGammaClear(b *testing.B) {
	src := `int a[16];
void f(int i, int j, int x) {
  x = a[(i++, j)];
  (i++, j++);
  x = (i--, a[j]) + 1;
}`
	tu, perrs := parser.ParseFile("g.c", src, nil)
	if len(perrs) > 0 {
		b.Fatal(perrs[0])
	}
	if errs := sema.Check(tu); len(errs) > 0 {
		b.Fatal(errs[0])
	}
	sound := ooe.New(ooe.Config{}, ooe.FuncMap(tu))
	unsound := ooe.New(ooe.Config{NoGammaClear: true}, ooe.FuncMap(tu))
	var nSound, nUnsound int
	for i := 0; i < b.N; i++ {
		nSound, nUnsound = 0, 0
		for _, rep := range sound.AnalyzeFunction(tu.Funcs[0]) {
			nSound += len(rep.Predicates)
		}
		for _, rep := range unsound.AnalyzeFunction(tu.Funcs[0]) {
			nUnsound += len(rep.Predicates)
		}
	}
	b.ReportMetric(float64(nSound), "sound_pairs")
	b.ReportMetric(float64(nUnsound), "unsound_pairs")
}

// BenchmarkAutoAnnotate measures the §5 extension: algorithmic annotation
// plus sanitizer validation on an unannotated kernel.
func BenchmarkAutoAnnotate(b *testing.B) {
	src := `double A[256], B[256];
void scale(double *dst, double *src, int n) {
  for (int i = 0; i < n; i++)
    dst[i] = src[i] * 2.0;
}
int main() {
  for (int i = 0; i < 256; i++) B[i] = (double)(i % 17);
  for (int r = 0; r < 20; r++) scale(A, B, 256);
  double s = 0.0;
  for (int i = 0; i < 256; i++) s += A[i];
  return (int)s;
}`
	var ratioPlain, ratioAnnotated float64
	for i := 0; i < b.N; i++ {
		plain, err := driver.Compile("p", src, driver.Config{OOElala: true})
		if err != nil {
			b.Fatal(err)
		}
		annotated, err := driver.Compile("a", src, driver.Config{
			OOElala:   true,
			Transform: func(tu *ast.TranslationUnit) { annotate.Unit(tu) },
		})
		if err != nil {
			b.Fatal(err)
		}
		_, cp, err := plain.Run("")
		if err != nil {
			b.Fatal(err)
		}
		_, ca, err := annotated.Run("")
		if err != nil {
			b.Fatal(err)
		}
		base, err := driver.Compile("b", src, driver.Config{OOElala: false})
		if err != nil {
			b.Fatal(err)
		}
		_, cb, err := base.Run("")
		if err != nil {
			b.Fatal(err)
		}
		ratioPlain = cb / cp
		ratioAnnotated = cb / ca
	}
	b.ReportMetric(ratioPlain, "speedup_unannotated")
	b.ReportMetric(ratioAnnotated, "speedup_autoannotated")
}

// BenchmarkRestrictComparison measures the §5 restrict-vs-CANT_ALIAS
// comparison on the scale kernel family.
func BenchmarkRestrictComparison(b *testing.B) {
	for _, p := range []workload.Program{
		workload.RestrictScale(), workload.AnnotatedScale(), workload.PartialOverlapKernel(),
	} {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				ratio = speedupOf(b, p.Name, p.Source, workload.RestrictMeasureOpts())
			}
			b.ReportMetric(ratio, "speedup")
		})
	}
}

// BenchmarkCompileParallel measures the middle-end worker pool on a
// wide translation unit (many independent loop-heavy functions — the
// shape that parallelizes). The -j 1 sub-benchmark is the sequential
// oracle; the -j GOMAXPROCS one is the default configuration. Their
// output is asserted byte-identical elsewhere
// (TestParallelCompileDeterminism); here only wall clock may differ.
func BenchmarkCompileParallel(b *testing.B) {
	var sb strings.Builder
	const funcs = 24
	sb.WriteString("double data[512];\n")
	for i := 0; i < funcs; i++ {
		fmt.Fprintf(&sb, `double kernel%d(double *mn, double *mx) {
  double s = 0;
  for (int r = 0; r < 6; r++) {
    for (int i = 0; i < 512; i++) {
      if (data[i] < *mn) *mn = data[i];
      if (data[i] > *mx) *mx = data[i];
      s += data[i] * %d.0;
    }
  }
  return s;
}
`, i, i+1)
	}
	sb.WriteString("double mn, mx;\nint main() {\n  double s = 0;\n")
	for i := 0; i < funcs; i++ {
		fmt.Fprintf(&sb, "  s += kernel%d(&mn, &mx);\n", i)
	}
	sb.WriteString("  return (int)s;\n}\n")
	src := sb.String()

	widths := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		widths = append(widths, n)
	}
	for _, jobs := range widths {
		jobs := jobs
		b.Run(fmt.Sprintf("j%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := driver.Compile("wide.c", src, driver.Config{OOElala: true, Jobs: jobs})
				if err != nil {
					b.Fatal(err)
				}
				_ = c
			}
		})
		// The flight-recorder acceptance gate: the always-on crash ring
		// must cost < 2% against the bare configuration above (compare
		// j<N> to j<N>-flight with benchstat or benchdiff -metrics).
		b.Run(fmt.Sprintf("j%d-flight", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tel := telemetry.New(telemetry.Config{Flight: true})
				c, err := driver.Compile("wide.c", src, driver.Config{
					OOElala: true, Jobs: jobs, Telemetry: tel,
				})
				if err != nil {
					b.Fatal(err)
				}
				_ = c
			}
		})
	}
}

// BenchmarkSpecCompile measures the compile half of the toolchain on
// the pass-pipeline-heavy corpus: every SPEC-shaped unit of
// workload.SpecSuite compiled under baseline and OOElala at -j1, plus
// the bytecode translation. It is the entry point for compile-time CPU
// profiles:
//
//	go test -run '^$' -bench SpecCompile -cpuprofile cpu.out .
func BenchmarkSpecCompile(b *testing.B) {
	var units []workload.Program
	for _, bench := range workload.SpecSuite() {
		units = append(units, workload.GenerateUnits(bench)...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range units {
			for _, ooelala := range []bool{false, true} {
				c, err := driver.Compile(u.Name, u.Source, driver.Config{
					OOElala: ooelala, Files: workload.Files(), Jobs: 1})
				if err != nil {
					b.Fatal(err)
				}
				c.Program()
			}
		}
	}
	b.ReportMetric(float64(len(units)), "units")
}

// BenchmarkRunLeg measures the execution half of the toolchain: the
// same compiled module run on the tree-walking oracle versus the
// bytecode vm. Compilation happens once outside the timer — the run leg
// is what every experiment, fuzz sweep, and sanitizer replay pays per
// program, and the vm's contract is "same bits, an order of magnitude
// less wall-clock". Compare tree/ to vm/ with benchstat or benchdiff.
// The programs run at unseq-O3, and gemm and perl-toke once more as
// the sanitizer builds them (O0 with UB checks). Their runs are mostly
// slot loads and ubcheck runs: compile time decides 80% of the checks
// gemm executes and 28.6% of perl-toke's, so the two time both the
// skipped and the evaluated check path.
func BenchmarkRunLeg(b *testing.B) {
	o3 := driver.Config{OOElala: true, Files: workload.Files()}
	san := driver.Config{OOElala: true, Sanitize: true, Files: workload.Files()}
	legs := []struct {
		name string
		p    workload.Program
		cfg  driver.Config
	}{
		{"bicg", workload.Bicg(), o3},
		{"gemm", workload.Gemm(), o3},
		{"intro-imagick", workload.IntroImagick(3), o3},
		{"intro-minmax", workload.IntroMinmax(64), o3},
		{"gemm-sanitize-O0", workload.Gemm(), san},
		{"perl-toke-sanitize-O0", workload.PerlToke().Program, san},
	}
	for _, l := range legs {
		c, err := driver.Compile(l.p.Name, l.p.Source, l.cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Warm the bytecode cache so vm/ never times the translation.
		c.Program()
		for _, eng := range []string{driver.EngineTree, driver.EngineVM} {
			eng := eng
			b.Run(eng+"/"+l.name, func(b *testing.B) {
				// Collect the previous leg's garbage outside the timer:
				// the tree-walker allocates heavily, and without this its
				// GC debt is billed to whichever leg runs next.
				runtime.GC()
				b.ResetTimer()
				var cycles float64
				for i := 0; i < b.N; i++ {
					r, err := c.Exec(driver.RunOpts{Engine: eng})
					if err != nil {
						b.Fatal(err)
					}
					cycles = r.Cycles
				}
				b.ReportMetric(cycles, "cycles")
			})
		}
	}
}
