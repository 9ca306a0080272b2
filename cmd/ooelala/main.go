// Command ooelala is the compiler driver: it compiles a C source file
// with the order-of-evaluation alias analysis enabled (or disabled, for
// baseline comparisons), optionally executes it on the cost-model
// machine, and prints the analysis/optimization statistics the paper's
// evaluation reports.
//
// Usage:
//
//	ooelala [flags] file.c
//
//	-baseline      disable unseq-aa (Clang-like baseline)
//	-O0            disable optimization
//	-run           execute main() and report result + simulated cycles
//	-compare       compile and run under BOTH configurations, report speedup
//	-dump-ir       print the optimized IR
//	-stats         print analysis and pass statistics
//	-time-passes   print per-phase and per-pass wall-clock times
//	-remarks       print optimization remarks with unseq-aa attribution
//	-metrics-json  write every collected metric as JSON to the given path
//	-metrics-prom  write metrics in Prometheus text format to the given path
//	-trace         write a Chrome trace_event JSON timeline (Perfetto-viewable)
//	-aa-audit      write the alias-query audit log as JSON
//	-profile-cpu   write a whole-run CPU profile
//	-profile-mem   write an end-of-run heap profile
//	-profile-cycles write a pprof protobuf profile of simulated cycles by source line (implies -run)
//	-annotate      print a perf-annotate-style source listing of the run leg (implies -run)
//	-folded        write folded flamegraph stack lines of the run leg (implies -run)
//	-crash-dir     directory for crash-<unit>.json flight-recorder dumps
//	-explain       print per-full-expression ω/θ/γ/π sets and π-pair consumption
//	-interproc     resolve call-site mod/ref through bottom-up summaries (default true)
//	-inline-threshold  inliner size cutoff (0 = never inline; -1 = pipeline default)
//	-print-callgraph  print the module call graph with bottom-up SCC order
//	-print-summaries  print the per-function interprocedural summaries
//	-j N           per-function compilation parallelism (0 = GOMAXPROCS)
//	-D name=value  predefine an object-like macro (repeatable)
//	-passes        comma-separated middle-end pass pipeline (default: the O3 sequence)
//	-verify-each   run the IR verifier after every pass
//	-print-changed print a function's IR after every pass that changed it (forces -j 1)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/annotate"
	"repro/internal/ast"
	"repro/internal/driver"
	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/telemetry/obsserver"
	"repro/internal/workload"
)

type defineFlags map[string]string

func (d defineFlags) String() string { return "" }

func (d defineFlags) Set(v string) error {
	name, val, ok := strings.Cut(v, "=")
	if !ok {
		val = "1"
	}
	d[name] = val
	return nil
}

func main() {
	baseline := flag.Bool("baseline", false, "disable unseq-aa (baseline Clang-like compiler)")
	noOpt := flag.Bool("O0", false, "disable optimization")
	run := flag.Bool("run", false, "execute main() and report result + cycles")
	compare := flag.Bool("compare", false, "run under both configurations and report the speedup")
	dumpIR := flag.Bool("dump-ir", false, "print the optimized IR")
	printCG := flag.Bool("print-callgraph", false, "print the module call graph with bottom-up SCC order")
	printSums := flag.Bool("print-summaries", false, "print the per-function interprocedural mod/ref + π summaries")
	jobs := flag.Int("j", 0, "per-function compilation parallelism (0 = GOMAXPROCS, 1 = sequential)")
	pf := driver.RegisterPassFlags(flag.CommandLine)
	tf := telemetry.RegisterFlags(flag.CommandLine)
	obs := obsserver.RegisterFlags(flag.CommandLine)
	explain := flag.Bool("explain", false,
		"print per-full-expression ω/θ/γ/π judgement sets with source ranges and which π pairs each optimization consumed")
	autoAnnotate := flag.Bool("auto-annotate", false,
		"insert CANT_ALIAS-equivalent annotations algorithmically (validated via the sanitizer)")
	profCycles := flag.String("profile-cycles", "",
		"write a pprof protobuf cycle profile of the run leg to the given path (implies -run)")
	annotateSrc := flag.Bool("annotate", false,
		"print a perf-annotate-style source listing of the run leg's cycle profile (implies -run)")
	folded := flag.String("folded", "",
		"write folded flamegraph stack lines of the run leg's cycle profile to the given path (implies -run)")
	defines := defineFlags{}
	flag.Var(defines, "D", "predefine an object-like macro: -D NAME=VALUE")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ooelala [flags] file.c")
		flag.Usage()
		os.Exit(2)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}

	driver.SetDefaultJobs(*jobs)
	if err := pf.Apply(); err != nil {
		fatal(err)
	}
	telCfg := tf.Config()
	if *explain {
		// -explain needs the remark stream and the alias-query audit log
		// to attribute π-pair consumption, whether or not their export
		// flags were given.
		telCfg.Remarks = true
		telCfg.Audit = true
	}
	driver.SetDefaultCrashDir(obs.CrashDir)
	tel := telemetry.New(telCfg)
	obsHandle, err := obs.Start()
	if err != nil {
		fatal(err)
	}
	defer obsHandle.Close()
	cfg := driver.Config{
		OOElala:       !*baseline,
		NoOpt:         *noOpt,
		Files:         workload.Files(),
		Defines:       defines,
		Jobs:          *jobs,
		Telemetry:     tel,
		DumpCallGraph: *printCG,
		DumpSummaries: *printSums,
	}
	if *autoAnnotate {
		rep, err := annotate.Validate(path, string(src), workload.Files())
		if err != nil {
			fatal(err)
		}
		if !rep.Validated {
			fmt.Fprintf(os.Stderr, "ooelala: auto-annotations violated at runtime (%d violations); refusing to use them\n",
				len(rep.Violations))
			obsserver.Exit(1)
		}
		fmt.Printf("auto-annotate: %d annotation statements inserted, sanitizer-validated\n", rep.Inserted)
		cfg.Transform = func(tu *ast.TranslationUnit) { annotate.Unit(tu) }
	}

	if *compare {
		ratio, result, err := driver.SpeedupWith(path, string(src), workload.Files(), nil, tel)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("result   %d (identical under both configurations)\n", result)
		fmt.Printf("speedup  %.3fx (baseline cycles / ooelala cycles)\n", ratio)
		if err := tf.Finish(tel, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	c, err := driver.Compile(path, string(src), cfg)
	if err != nil {
		fatal(err)
	}

	if tf.Stats {
		fmt.Printf("full expressions analyzed:         %d\n", c.Frontend.FullExprs)
		fmt.Printf("  with unsequenced side effects:   %d\n", c.Frontend.FullExprsUnseqSE)
		fmt.Printf("initial must-not-alias predicates: %d\n", c.Frontend.InitialPreds)
		fmt.Printf("  containing function calls:       %d\n", c.Frontend.PredsWithCalls)
		fmt.Printf("  dropped (both sides bitfields):  %d\n", c.Frontend.BitfieldDropped)
		fmt.Printf("final predicates in IR:            %d (%d unique)\n", c.FinalPreds, c.UniqueFinalPreds)
		fmt.Printf("aa queries:                        %d\n", c.AAStats.Queries)
		fmt.Printf("  extra NoAlias from unseq-aa:     %d\n", c.AAStats.UnseqNoAlias)
		fmt.Printf("passes: %s\n", c.PassStats)
	}
	if *explain {
		if err := driver.Explain(os.Stdout, c, tel.Snapshot()); err != nil {
			fatal(err)
		}
	}
	if *printCG {
		fmt.Print(c.CallGraphText)
	}
	if *printSums {
		fmt.Print(c.SummariesText)
	}
	if *dumpIR {
		fmt.Print(c.Module.String())
	}
	profiling := *profCycles != "" || *annotateSrc || *folded != ""
	if profiling {
		r, err := c.Exec(driver.RunOpts{Profile: true})
		if err != nil {
			fatal(err)
		}
		prof := r.Profile
		fmt.Printf("result %d\ncycles %.0f\n", r.Value, r.Cycles)
		if *profCycles != "" {
			if err := writeProfile(*profCycles, func(w io.Writer) error {
				return profile.WritePprof(w, prof)
			}); err != nil {
				fatal(err)
			}
			fmt.Printf("cycle profile: %s (view with `go tool pprof %s`)\n", *profCycles, *profCycles)
		}
		if *folded != "" {
			if err := writeProfile(*folded, func(w io.Writer) error {
				return profile.WriteFolded(w, prof)
			}); err != nil {
				fatal(err)
			}
		}
		if *annotateSrc {
			sources := map[string]string{path: string(src)}
			for k, v := range workload.Files() {
				sources[k] = v
			}
			if err := profile.WriteAnnotate(os.Stdout, prof, sources); err != nil {
				fatal(err)
			}
		}
	} else if *run {
		result, cycles, err := c.Run("")
		if err != nil {
			fatal(err)
		}
		fmt.Printf("result %d\ncycles %.0f\n", result, cycles)
	}
	if err := tf.Finish(tel, os.Stdout); err != nil {
		fatal(err)
	}
	if !tf.Stats && !*dumpIR && !*run && tel == nil {
		fmt.Printf("compiled %s: %d functions, %d predicates (%d unique)\n",
			path, len(c.Module.Funcs), c.FinalPreds, c.UniqueFinalPreds)
	}
}

// writeProfile writes one profile rendering to path atomically enough
// for CLI use (create, render, close).
func writeProfile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fatal exits through obsserver.Exit so an in-progress CPU profile is
// flushed even on error paths (the deferred Close never runs past
// os.Exit).
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ooelala:", err)
	obsserver.Exit(1)
}
