// Package driver is the end-to-end OOElala compiler: preprocess → lex →
// parse → sema → OOE alias analysis → IR lowering (with mustnotalias
// intrinsics) → O3 pass pipeline (with unseq-aa in the AA chain) →
// cost-model execution. It also collects every statistic the paper's
// evaluation reports (Table 5 columns, §4.2.2 compile-time stats).
package driver

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/aa"
	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/ooe"
	"repro/internal/parser"
	"repro/internal/passes"
	"repro/internal/sema"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// Config selects the compiler configuration.
type Config struct {
	// OOElala enables the paper's pipeline: predicates emitted, unseq-aa
	// chained. False = baseline Clang-like compiler.
	OOElala bool
	// Sanitize adds UBSan runtime checks on unoptimized IR (§4.1); it
	// forces O0 like the paper's sanitizer runs.
	Sanitize bool
	// NoOpt disables the pass pipeline (-O0). Default is -O3.
	NoOpt bool
	// Files provides #include-able sources.
	Files map[string]string
	// Defines are predefined macros (-D equivalents), installed in the
	// preprocessor's macro table so no source position shifts.
	Defines map[string]string
	// Costs overrides the interpreter cost model (zero value = defaults).
	Costs *interp.CostModel
	// PassOptions overrides pass tuning (nil = DefaultOptions with
	// UseUnseqAA set from OOElala).
	PassOptions *passes.Options
	// Transform, if set, runs after semantic analysis and may rewrite the
	// AST (e.g. the automatic annotator); sema is re-run afterwards.
	Transform func(*ast.TranslationUnit)
	// Jobs bounds the worker pool the per-function pass pipeline shards
	// across (the -j flag). 0 uses the process default (SetDefaultJobs,
	// else GOMAXPROCS); 1 forces the sequential path, the
	// differential-testing oracle. Output is byte-identical across all
	// values — results merge in original function order.
	Jobs int
	// Telemetry, if non-nil, receives phase spans, pass/AA counters, and
	// optimization remarks. The nil default has zero overhead.
	Telemetry *telemetry.Session
	// CrashDir is where a crash-<unit>.json flight-recorder dump is
	// written when a pass panics. Empty uses the process default
	// (SetDefaultCrashDir, else the current directory).
	CrashDir string
	// DumpCallGraph / DumpSummaries capture the pre-pipeline module call
	// graph and the bottom-up interprocedural summaries as text into
	// Compilation.CallGraphText / SummariesText (-print-callgraph,
	// -print-summaries).
	DumpCallGraph bool
	DumpSummaries bool
}

// FrontendStats are the AST-level analysis counts (Table 5, cols 3-4).
type FrontendStats struct {
	// FullExprs is the number of full expressions analyzed.
	FullExprs int
	// FullExprsUnseqSE counts full expressions with at least one
	// unsequenced side effect generating a predicate (col 3).
	FullExprsUnseqSE int
	// InitialPreds is the number of predicates generated at the AST level
	// including impure-tagged ones (col 4).
	InitialPreds int
	// PredsWithCalls counts predicates whose expressions contain function
	// calls (the sanitizer excludes them; §4.1 reports >98.5% without).
	PredsWithCalls int
	// BitfieldDropped counts predicates dropped by the §4.2.3 filter.
	BitfieldDropped int
}

// Compilation is the result of compiling one translation unit.
type Compilation struct {
	Name    string
	TU      *ast.TranslationUnit
	Module  *ir.Module
	Reports []ooe.FullExprReport

	Frontend  FrontendStats
	PassStats passes.Stats
	AAStats   aa.Stats

	// FinalPreds counts mustnotalias intrinsics surviving optimization
	// (col 5); UniqueFinalPreds dedupes clones by provenance (col 6).
	FinalPreds       int
	UniqueFinalPreds int
	// UBChecks counts sanitizer checks emitted.
	UBChecks int

	// CallGraphText / SummariesText are the pre-pipeline call graph and
	// interprocedural summary renderings (set by Config.DumpCallGraph /
	// DumpSummaries).
	CallGraphText string
	SummariesText string

	cfg Config

	// vmProg caches the module's compiled bytecode (built lazily by
	// Program; one compile amortizes over every run of this unit).
	vmOnce sync.Once
	vmProg *vm.Program
}

// Compile builds src under the configuration.
func Compile(name, src string, cfg Config) (*Compilation, error) {
	tel := cfg.Telemetry
	tel.FlightRecord("unit", name, "")
	stop := tel.Span("phase/parse")
	tu, perrs := parser.ParseFileTimed(name, src, cfg.Files, cfg.Defines, tel)
	stop()
	if len(perrs) > 0 {
		return nil, fmt.Errorf("%s: parse: %v", name, perrs[0])
	}
	stop = tel.Span("phase/sema")
	serrs := sema.Check(tu)
	stop()
	if len(serrs) > 0 {
		return nil, fmt.Errorf("%s: sema: %v", name, serrs[0])
	}
	if cfg.Transform != nil {
		cfg.Transform(tu)
		if serrs := sema.Check(tu); len(serrs) > 0 {
			return nil, fmt.Errorf("%s: sema after transform: %v", name, serrs[0])
		}
	}

	jobs := cfg.jobs()
	ooeCfg := ooe.Config{}
	an := ooe.New(ooeCfg, ooe.FuncMap(tu))
	stop = tel.Span("phase/ooe")
	reports := an.AnalyzeUnit(tu)
	stop()

	c := &Compilation{Name: name, TU: tu, Reports: reports, cfg: cfg}
	for _, rep := range reports {
		c.Frontend.FullExprs++
		if rep.Result.HasUnseqSideEffect {
			c.Frontend.FullExprsUnseqSE++
		}
		c.Frontend.InitialPreds += len(rep.Predicates)
		for _, p := range rep.Predicates {
			if len(p.Calls) > 0 {
				c.Frontend.PredsWithCalls++
			}
			if p.BothBitfields {
				c.Frontend.BitfieldDropped++
			}
		}
	}

	genOpts := irgen.Options{
		EmitPredicates: cfg.OOElala,
		Sanitize:       cfg.Sanitize,
	}
	stop = tel.Span("phase/irgen")
	mod, gerrs := irgen.Generate(tu, reports, genOpts)
	stop()
	if len(gerrs) > 0 {
		return nil, fmt.Errorf("%s: irgen: %v", name, gerrs[0])
	}
	c.Module = mod

	popts := passes.DefaultOptions()
	if cfg.PassOptions != nil {
		popts = *cfg.PassOptions
	}
	applyDefaultPassConfig(&popts)
	popts.UseUnseqAA = cfg.OOElala
	if popts.Telemetry == nil {
		popts.Telemetry = tel
	}
	if popts.Jobs == 0 {
		popts.Jobs = jobs
	}
	if cfg.NoOpt || cfg.Sanitize {
		// The paper limits the sanitizer to unoptimized IR.
		popts.OptLevel = 0
	}
	if cfg.DumpCallGraph || cfg.DumpSummaries {
		// Force the module analyses now, against the pre-pipeline module
		// (they are defined on that snapshot); RunModule reuses the same
		// cached results through popts.ModuleAnalyses.
		ma := passes.NewModuleAnalyses(mod)
		popts.ModuleAnalyses = ma
		if cfg.DumpCallGraph {
			c.CallGraphText = ma.CallGraph().String()
		}
		if cfg.DumpSummaries {
			c.SummariesText = ma.Summaries().String()
		}
	}
	stop = tel.Span("phase/opt")
	pstats, perr := passes.RunModule(mod, popts, &c.AAStats)
	c.PassStats = pstats
	stop()
	if perr != nil {
		// A recovered pass panic becomes a crash-<unit>.json flight-
		// recorder dump; the error still propagates so the unit fails,
		// but sibling units (CompileAll) keep compiling.
		var pe *passes.PanicError
		if errors.As(perr, &pe) {
			tel.Count("crash/pass_panics", 1)
			path, werr := writeCrashDump(cfg.crashDir(), crashDumpFor(name, pe, mod, tel))
			if werr != nil {
				return nil, fmt.Errorf("%s: %w (crash dump failed: %v)", name, perr, werr)
			}
			return nil, fmt.Errorf("%s: %w (crash dump: %s)", name, perr, path)
		}
		return nil, fmt.Errorf("%s: %w", name, perr)
	}

	stop = tel.Span("phase/verify")
	problems := mod.Verify()
	stop()
	if len(problems) > 0 {
		return nil, fmt.Errorf("%s: IR verification failed: %s", name, problems[0])
	}

	seen := map[int]bool{}
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpMustNotAlias:
					c.FinalPreds++
					seen[in.Meta] = true
				case ir.OpUBCheck:
					c.UBChecks++
				}
			}
		}
	}
	c.UniqueFinalPreds = len(seen)
	c.record(tel)
	return c, nil
}

// record exports the compilation's statistics as telemetry counters.
func (c *Compilation) record(tel *telemetry.Session) {
	if !tel.MetricsEnabled() {
		return
	}
	tel.Count("frontend/full_exprs", int64(c.Frontend.FullExprs))
	tel.Count("frontend/full_exprs_unseq_se", int64(c.Frontend.FullExprsUnseqSE))
	tel.Count("frontend/initial_preds", int64(c.Frontend.InitialPreds))
	tel.Count("frontend/preds_with_calls", int64(c.Frontend.PredsWithCalls))
	tel.Count("frontend/bitfield_dropped", int64(c.Frontend.BitfieldDropped))
	tel.Count("aa/queries", int64(c.AAStats.Queries))
	tel.Count("aa/noalias", int64(c.AAStats.NoAlias))
	tel.Count("aa/mayalias", int64(c.AAStats.MayAlias))
	tel.Count("aa/mustalias", int64(c.AAStats.MustAlias))
	tel.Count("aa/partialalias", int64(c.AAStats.PartialAlias))
	tel.Count("aa/unseq_noalias", int64(c.AAStats.UnseqNoAlias))
	tel.Count("preds/final", int64(c.FinalPreds))
	tel.Count("preds/unique", int64(c.UniqueFinalPreds))
	tel.Count("preds/ubchecks", int64(c.UBChecks))
	c.PassStats.Record(tel)
}

// Speedup compiles src under baseline and OOElala configurations, runs
// both, and returns baselineCycles/ooelalaCycles. Both runs must produce
// the same result (returned for verification).
func Speedup(name, src string, files map[string]string, popts *passes.Options) (ratio float64, result int64, err error) {
	return SpeedupWith(name, src, files, popts, nil)
}

// SpeedupWith is Speedup with a telemetry session attached to the
// OOElala-side compilation and run (the baseline side is untracked so
// remarks and counters reflect the paper's pipeline, not the control).
// Compile errors from either leg propagate with the leg identified — a
// failure on the telemetry-carrying OOElala side must never surface as
// a silent zero ratio.
func SpeedupWith(name, src string, files map[string]string, popts *passes.Options, tel *telemetry.Session) (ratio float64, result int64, err error) {
	base, err := Compile(name, src, Config{OOElala: false, Files: files, PassOptions: popts})
	if err != nil {
		return 0, 0, fmt.Errorf("baseline compile: %w", err)
	}
	opt, err := Compile(name, src, Config{OOElala: true, Files: files, PassOptions: popts, Telemetry: tel})
	if err != nil {
		return 0, 0, fmt.Errorf("ooelala compile: %w", err)
	}
	rBase, cBase, err := base.Run("")
	if err != nil {
		return 0, 0, fmt.Errorf("baseline run: %w", err)
	}
	rOpt, cOpt, err := opt.Run("")
	if err != nil {
		return 0, 0, fmt.Errorf("ooelala run: %w", err)
	}
	if rBase != rOpt {
		return 0, 0, fmt.Errorf("MISCOMPILE: baseline=%d ooelala=%d", rBase, rOpt)
	}
	if cBase == 0 || cOpt == 0 {
		return 0, 0, fmt.Errorf("zero cycle count (base=%.0f ooe=%.0f)", cBase, cOpt)
	}
	return cBase / cOpt, rBase, nil
}
