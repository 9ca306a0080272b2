package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/aa"
	"repro/internal/cpp"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/irgen"
	"repro/internal/ooe"
	"repro/internal/parser"
	"repro/internal/passes"
	"repro/internal/sema"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// minRounds is the fewest rounds a traced run makes; a round is one
// untraced, one layered and one span pass.
const minRounds = 2

// Layers of the traced composition, in pipeline order. Every layer
// before lVMRun belongs to the compile leg.
const (
	lCpp = iota
	lParser
	lSema
	lOoe
	lIrgen
	lPasses
	lVerify
	lVMCompile
	lVMRun
	nLayers
)

// layerMetrics names each layer's time and allocation metrics.
var layerMetrics = [nLayers][2]string{
	{"cpp.ms", "cpp.alloc_mb"},
	{"parser.ms", "parser.alloc_mb"},
	{"sema.ms", "sema.alloc_mb"},
	{"ooe.ms", "ooe.alloc_mb"},
	{"irgen.ms", "irgen.alloc_mb"},
	{"passes.ms", "passes.alloc_mb"},
	{"ir.verify_ms", "ir.alloc_mb"},
	{"vm.compile_ms", "vm.compile_alloc_mb"},
	{"vm.run_ms", "vm.run_alloc_mb"},
}

// layerSample is one (unit, leg) execution composed layer by layer.
type layerSample struct {
	d     [nLayers]time.Duration
	alloc [nLayers]uint64

	tokens, preds, irgenInstrs, transforms int
	aa                                     aa.Stats
	out                                    outcome
}

// stopwatch times consecutive layers: each lap charges the wall time
// and heap bytes allocated since the previous lap to one layer.
type stopwatch struct {
	t time.Time
	a uint64
}

func startWatch() stopwatch {
	return stopwatch{t: time.Now(), a: heapAllocs()}
}

func (sw *stopwatch) lap(ls *layerSample, layer int) {
	now, a := time.Now(), heapAllocs()
	ls.d[layer], ls.alloc[layer] = now.Sub(sw.t), a-sw.a
	sw.t, sw.a = now, a
}

// passOptions mirrors how driver.Compile derives the pass options from
// its configuration when no process-wide pass flags are installed.
func passOptions(t task, jobs int) passes.Options {
	popts := passes.DefaultOptions()
	if t.u.opts != nil {
		popts = *t.u.opts
	}
	popts.UseUnseqAA = t.l.ooelala
	if popts.Jobs == 0 {
		popts.Jobs = jobs
	}
	if t.l.sanitize {
		popts.OptLevel = 0
	}
	return popts
}

// layerTask composes the pipeline from each layer's public function —
// the sequence driver.Compile, Program and Run perform — timing every
// layer on its own. Layer times are scaled to the reference host speed.
func layerTask(t task, jobs int) (layerSample, error) {
	var ls layerSample
	settle()
	before := calibrate()
	fail := func(stage string, err any) (layerSample, error) {
		return ls, fmt.Errorf("%s/%s: %s: %v", t.u.name, t.l.name, stage, err)
	}
	sw := startWatch()
	pp := cpp.New(files)
	toks := pp.Process(t.u.name, t.u.src)
	sw.lap(&ls, lCpp)
	p := parser.New(t.u.name, toks)
	tu := p.ParseTranslationUnit()
	sw.lap(&ls, lParser)
	if errs := pp.Errors(); len(errs) > 0 {
		return fail("cpp", errs[0])
	}
	if errs := p.Errors(); len(errs) > 0 {
		return fail("parse", errs[0])
	}
	serrs := sema.Check(tu)
	sw.lap(&ls, lSema)
	if len(serrs) > 0 {
		return fail("sema", serrs[0])
	}
	reports := ooe.New(ooe.Config{}, ooe.FuncMap(tu)).AnalyzeUnitJobs(tu, jobs)
	sw.lap(&ls, lOoe)
	mod, gerrs := irgen.Generate(tu, reports, irgen.Options{EmitPredicates: t.l.ooelala, Sanitize: t.l.sanitize})
	sw.lap(&ls, lIrgen)
	if len(gerrs) > 0 {
		return fail("irgen", gerrs[0])
	}
	ls.tokens = len(toks)
	for _, r := range reports {
		ls.preds += len(r.Predicates)
	}
	ls.irgenInstrs = moduleInstrs(mod)

	sw = startWatch()
	pstats, err := passes.RunModule(mod, passOptions(t, jobs), &ls.aa)
	sw.lap(&ls, lPasses)
	if err != nil {
		return fail("passes", err)
	}
	problems := mod.Verify()
	sw.lap(&ls, lVerify)
	if len(problems) > 0 {
		return fail("verify", problems[0])
	}
	prog := vm.Compile(mod)
	sw.lap(&ls, lVMCompile)
	m := vm.New(prog, interp.DefaultCosts())
	ls.out.result, err = m.RunArgs("main")
	ls.out.cycles = m.TotalCycles()
	ls.out.sanFails = len(m.SanitizerFailures())
	m.Release()
	sw.lap(&ls, lVMRun)
	if err != nil {
		return fail("run", err)
	}
	scale := hostScale(before, calibrate())
	for l := range ls.d {
		ls.d[l] = scaled(ls.d[l], scale)
	}
	ls.out.instrs = moduleInstrs(mod)
	ls.transforms = transforms(pstats)
	return ls, nil
}

// transforms sums the pass pipeline's transform counters. RegsAssigned
// is left out: it counts surviving slots, not transforms.
func transforms(s passes.Stats) int {
	return s.CSESimplified + s.NodesCombined + s.StoresDeleted + s.LICMHoisted +
		s.LICMPromoted + s.LoopsUnrolled + s.LoopsVectorized + s.CallsInlined +
		s.FuncsDeleted + s.MemsetsFormed + s.DCERemoved + s.BlocksMerged
}

// spanSample is one driver compile with a -time-passes session on.
type spanSample struct {
	compile time.Duration            // driver.Compile + Program with the session
	passes  map[string]time.Duration // pass/<name> span totals
	j1      time.Duration            // phase/opt span of the same compile at -j 1
	instrs  [2]int                   // post-opt instructions at the default -j and at -j 1
}

// spanTask compiles a task through the driver with a timing session,
// then again at -j 1, reading the pass spans the session records.
func spanTask(t task) (spanSample, error) {
	var sp spanSample
	cfg := t.config()
	for i, jobs := range []int{0, 1} {
		settle()
		before := calibrate()
		tel := telemetry.New(telemetry.Config{Timing: true})
		cfg.Telemetry, cfg.Jobs = tel, jobs
		start := time.Now()
		c, err := driver.Compile(t.u.name, t.u.src, cfg)
		if err != nil {
			return sp, err
		}
		c.Program()
		elapsed := time.Since(start)
		scale := hostScale(before, calibrate())
		elapsed = scaled(elapsed, scale)
		sp.instrs[i] = moduleInstrs(c.Module)
		spans := map[string]time.Duration{}
		for _, d := range tel.Snapshot().Durations {
			spans[d.Name] = scaled(d.Total(), scale)
		}
		if jobs == 0 {
			sp.compile, sp.passes = elapsed, spans
		} else {
			sp.j1 = spans["phase/opt"]
		}
	}
	return sp, nil
}

// passNames lists the default pipeline's distinct pass names in order.
func passNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, p := range passes.DefaultPipeline().Passes() {
		if !seen[p.Name()] {
			seen[p.Name()] = true
			names = append(names, p.Name())
		}
	}
	return names
}

// traced is the -trace 1 run. Each round makes three passes over the
// tasks: untraced through the driver (the reference timings), layered
// (layerTask, which must reproduce every untraced outcome exactly), and
// spanned (spanTask, the driver with its telemetry session on).
func traced(w workloadDef, seed int64, budget time.Duration) (*result, error) {
	b, err := prepare(w, seed, refStore{})
	if err != nil {
		return nil, err
	}
	jobs := runtime.GOMAXPROCS(0) // the driver's default -j
	rng := rand.New(rand.NewSource(seed))
	n := len(b.tasks)
	untraced := make([][]sample, n)
	layered := make([][]layerSample, n)
	spanned := make([][]spanSample, n)
	var tl tally
	deadline := time.Now().Add(budget)
	rounds := 0
	for ; rounds < minRounds || time.Now().Before(deadline); rounds++ {
		b.untracedPass(rng, untraced, &tl)
		for _, i := range rng.Perm(n) {
			t := b.tasks[i]
			ls, err := layerTask(t, jobs)
			if err == nil {
				err = t.check(ls.out)
			}
			if err == nil && len(untraced[i]) > 0 && ls.out != untraced[i][0].out {
				err = fmt.Errorf("%s/%s: layered outcome %+v, untraced %+v", t.u.name, t.l.name, ls.out, untraced[i][0].out)
			}
			if tl.record(err) {
				layered[i] = append(layered[i], ls)
			}
		}
		for _, i := range rng.Perm(n) {
			t := b.tasks[i]
			sp, err := spanTask(t)
			if err == nil && len(untraced[i]) > 0 && (sp.instrs[0] != untraced[i][0].out.instrs || sp.instrs[1] != sp.instrs[0]) {
				err = fmt.Errorf("%s/%s: post-opt instructions %v with telemetry (-j default, -j 1), untraced %d", t.u.name, t.l.name, sp.instrs, untraced[i][0].out.instrs)
			}
			if tl.record(err) {
				spanned[i] = append(spanned[i], sp)
			}
		}
	}

	// sumMedians sums, over tasks, the median of f over a task's samples.
	sumMedians := func(count func(i int) int, f func(i, j int) float64) float64 {
		total := 0.0
		for i := 0; i < n; i++ {
			var xs []float64
			for j := 0; j < count(i); j++ {
				xs = append(xs, f(i, j))
			}
			total += median(xs)
		}
		return total
	}
	layers := func(i int) int { return len(layered[i]) }
	spans := func(i int) int { return len(spanned[i]) }
	// first sums a deterministic count over each task's first layered sample.
	first := func(f func(ls layerSample) float64) float64 {
		total := 0.0
		for i := 0; i < n; i++ {
			if len(layered[i]) > 0 {
				total += f(layered[i][0])
			}
		}
		return total
	}

	res := &result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed}
	var layerMS, compileAllocMB [nLayers]float64
	compileLayersMS, compileLayersMB := 0.0, 0.0
	for l := 0; l < nLayers; l++ {
		layerMS[l] = sumMedians(layers, func(i, j int) float64 { return ms(layered[i][j].d[l]) })
		compileAllocMB[l] = sumMedians(layers, func(i, j int) float64 { return float64(layered[i][j].alloc[l]) / (1 << 20) })
		res.set(layerMetrics[l][0], layerMS[l], "ms")
		res.set(layerMetrics[l][1], compileAllocMB[l], "MiB")
		if l < lVMRun {
			compileLayersMS += layerMS[l]
			compileLayersMB += compileAllocMB[l]
		}
	}
	res.set("vm.alloc_mb", compileAllocMB[lVMCompile]+compileAllocMB[lVMRun], "MiB")
	for _, name := range passNames() {
		res.set("passes."+name+".ms", sumMedians(spans, func(i, j int) float64 { return ms(spanned[i][j].passes["pass/"+name]) }), "ms")
	}
	res.set("passes.ms_j1", sumMedians(spans, func(i, j int) float64 { return ms(spanned[i][j].j1) }), "ms")

	res.set("cpp.tokens", first(func(ls layerSample) float64 { return float64(ls.tokens) }), "count")
	res.set("ooe.preds", first(func(ls layerSample) float64 { return float64(ls.preds) }), "count")
	res.set("irgen.instrs_out", first(func(ls layerSample) float64 { return float64(ls.irgenInstrs) }), "count")
	res.set("passes.instrs_out", first(func(ls layerSample) float64 { return float64(ls.out.instrs) }), "count")
	res.set("passes.transforms", first(func(ls layerSample) float64 { return float64(ls.transforms) }), "count")
	queries := first(func(ls layerSample) float64 { return float64(ls.aa.Queries) })
	noalias := first(func(ls layerSample) float64 { return float64(ls.aa.NoAlias) })
	res.set("aa.queries", queries, "count")
	res.set("aa.noalias", noalias, "count")
	res.set("aa.unseq_noalias", first(func(ls layerSample) float64 { return float64(ls.aa.UnseqNoAlias) }), "count")
	res.set("aa.summary_noalias", first(func(ls layerSample) float64 { return float64(ls.aa.SummaryNoAlias) }), "count")
	ratio := 0.0
	if queries > 0 {
		ratio = noalias / queries
	}
	res.set("aa.noalias_ratio", ratio, "ratio")
	cycles := first(func(ls layerSample) float64 { return ls.out.cycles })
	res.set("vm.run_ns_per_kcycle", layerMS[lVMRun]*1e6/(cycles/1000), "ns/kcycle")

	untracedMS := sumMedians(func(i int) int { return len(untraced[i]) }, func(i, j int) float64 { return ms(untraced[i][j].compile) })
	untracedMB := sumMedians(func(i int) int { return len(untraced[i]) }, func(i, j int) float64 { return float64(untraced[i][j].compileAlloc) / (1 << 20) })
	res.set("driver.self_ms", untracedMS-compileLayersMS, "ms")
	res.set("driver.alloc_mb", untracedMB-compileLayersMB, "MiB")
	res.set("telemetry.overhead_ms", sumMedians(spans, func(i, j int) float64 { return ms(spanned[i][j].compile) })-untracedMS, "ms")

	fmt.Printf("traced workload %s seed %d (spec draw %d): %d tasks, %d rounds, untraced compile %.1f ms, layered compile %.1f ms, -j %d\n",
		b.name, seed, b.draw, n, rounds, untracedMS, compileLayersMS, jobs)
	var top []string
	for l := 0; l < nLayers; l++ {
		top = append(top, fmt.Sprintf("%s=%.1f", layerMetrics[l][0], layerMS[l]))
	}
	fmt.Println("  " + strings.Join(top, " "))
	return res, nil
}
