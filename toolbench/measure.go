package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/driver"
	"repro/internal/ir"
)

const (
	// setupRepeats is how many times set-up runs; setup_s is the median.
	setupRepeats = 5
	// minPasses is the fewest measured passes a run makes, so every
	// per-unit median has at least this many samples.
	minPasses = 3
	// minTailSamples is the fewest samples a p90 is reported over: at
	// least ten of them then lie beyond it.
	minTailSamples = 100
	// latencyBandwidth is the spread, in natural-log units, that
	// smoothQuantile gives each latency sample: about how far one
	// sample strays from its unit's median on a 2-vCPU KVM guest.
	latencyBandwidth = 0.2
)

// outcome is what one (unit, leg) execution produced.
type outcome struct {
	result   int64
	cycles   float64
	instrs   int // post-optimization IR instructions
	sanFails int
}

// sample is one timed (unit, leg) execution through the driver.
// Durations are scaled to the reference host speed by scale (see
// hostScale).
type sample struct {
	compile, run time.Duration
	scale        float64
	compileAlloc uint64
	out          outcome
}

// bench is a workload ready to measure.
type bench struct {
	name   string
	draw   int
	units  []*unit
	tasks  []task
	missed int // units whose reference refs.json lacks
}

// prepare is one set-up: generate the workload, resolve every unit's
// csem reference (cache carries references computed by an earlier
// set-up of this process), and warm up by running the first unit on
// every leg.
func prepare(w workloadDef, seed int64, cache refStore) (*bench, error) {
	rf, err := loadRefs()
	if err != nil {
		return nil, err
	}
	b := &bench{name: w.name, draw: drawOf(rf.Draws, seed)}
	b.units = w.units(b.draw)
	if b.missed, err = resolveRefs(rf.Refs, cache, b.units); err != nil {
		return nil, err
	}
	b.tasks = tasks(b.units, w.legs)
	for _, l := range w.legs {
		t := task{u: b.units[0], l: l}
		s, err := runTask(t)
		if err == nil {
			err = t.check(s.out)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return b, nil
}

// setupTimed runs set-up setupRepeats times and returns the last bench
// with the median set-up time, unscaled.
func setupTimed(w workloadDef, seed int64) (*bench, time.Duration, error) {
	cache := refStore{}
	var b *bench
	var ds []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		var err error
		if b, err = prepare(w, seed, cache); err != nil {
			return nil, 0, err
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	return b, time.Duration(median(ds) * float64(time.Second)), nil
}

func (t task) config() driver.Config {
	return driver.Config{
		OOElala:     t.l.ooelala,
		Sanitize:    t.l.sanitize,
		Files:       files,
		PassOptions: t.u.opts,
	}
}

// runTask compiles and runs one task through the user path at the
// default configuration: driver.Compile + Program() is the compile
// leg; Run — or, for the sanitizer leg, the machine run ooebench -ubsan
// performs — is the run leg.
func runTask(t task) (sample, error) {
	var s sample
	settle()
	before := calibrate()
	a0 := heapAllocs()
	start := time.Now()
	c, err := driver.Compile(t.u.name, t.u.src, t.config())
	if err != nil {
		return s, err
	}
	c.Program()
	mid := time.Now()
	a1 := heapAllocs()
	if t.l.sanitize {
		m := c.NewMachineOn("")
		s.out.result, err = m.RunArgs("main")
		s.out.cycles = m.TotalCycles()
		s.out.sanFails = len(m.SanitizerFailures())
	} else {
		s.out.result, s.out.cycles, err = c.Run("")
	}
	end := time.Now()
	s.scale = hostScale(before, calibrate())
	s.compile, s.run = scaled(mid.Sub(start), s.scale), scaled(end.Sub(mid), s.scale)
	s.compileAlloc = a1 - a0
	s.out.instrs = moduleInstrs(c.Module)
	if err != nil {
		return s, fmt.Errorf("%s/%s: run: %w", t.u.name, t.l.name, err)
	}
	return s, nil
}

// check compares an outcome with the unit's csem reference (as the C
// int main returns) and, on the sanitizer leg, requires zero failures.
func (t task) check(o outcome) error {
	if int32(o.result) != t.u.ref {
		return fmt.Errorf("%s/%s: result %d, csem reference %d", t.u.name, t.l.name, int32(o.result), t.u.ref)
	}
	if o.sanFails != 0 {
		return fmt.Errorf("%s/%s: %d sanitizer failures", t.u.name, t.l.name, o.sanFails)
	}
	return nil
}

func moduleInstrs(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// tally counts attempts and failures; a failure is reported on stderr
// the first few times.
type tally struct {
	attempted, failed int
}

func (tl *tally) record(err error) bool {
	tl.attempted++
	if err == nil {
		return true
	}
	tl.failed++
	if tl.failed <= 5 {
		fmt.Fprintln(os.Stderr, "toolbench: FAIL:", err)
	}
	return false
}

// untracedPass runs every task once in a fresh seeded order, appending
// each sample to samples[task]. A task fails if it errors, misses its
// reference, or differs from its first sample (determinism).
func (b *bench) untracedPass(rng *rand.Rand, samples [][]sample, tl *tally) {
	for _, i := range rng.Perm(len(b.tasks)) {
		t := b.tasks[i]
		s, err := runTask(t)
		if err == nil {
			err = t.check(s.out)
		}
		if err == nil && len(samples[i]) > 0 && samples[i][0].out != s.out {
			err = fmt.Errorf("%s/%s: outcome %+v differs from the first pass's %+v", t.u.name, t.l.name, s.out, samples[i][0].out)
		}
		if tl.record(err) {
			samples[i] = append(samples[i], s)
		}
	}
}

// endToEnd is the -trace 0 run: set-up, then untraced passes until the
// budget is spent, reported as the workload's end-to-end metrics.
func endToEnd(w workloadDef, seed int64, budget time.Duration) (*result, error) {
	b, setup, err := setupTimed(w, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	samples := make([][]sample, len(b.tasks))
	var allocs []float64
	var tl tally
	passes := max(minPasses, (minTailSamples+len(b.tasks)-1)/len(b.tasks))
	deadline := time.Now().Add(budget)
	n := 0
	for ; n < passes || time.Now().Before(deadline); n++ {
		a0 := heapAllocs()
		b.untracedPass(rng, samples, &tl)
		allocs = append(allocs, float64(heapAllocs()-a0))
		var c, r, rawC, rawR float64
		for _, ss := range samples {
			if len(ss) > n {
				s := ss[n]
				c, r = c+s.compile.Seconds(), r+s.run.Seconds()
				rawC, rawR = rawC+s.compile.Seconds()/s.scale, rawR+s.run.Seconds()/s.scale
			}
		}
		fmt.Fprintf(os.Stderr, "pass %d: compile %.3f s, run %.3f s (unscaled %.3f s, %.3f s)\n", n, c, r, rawC, rawR)
	}

	var compile, run float64
	var lat, scales []float64
	for _, ss := range samples {
		var cs, rs []float64
		for _, s := range ss {
			cs = append(cs, s.compile.Seconds())
			rs = append(rs, s.run.Seconds())
			lat = append(lat, ms(s.compile+s.run))
			scales = append(scales, s.scale)
		}
		compile += median(cs)
		run += median(rs)
	}
	res := &result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed}
	// Set-up is too short to calibrate on its own; it takes the run's
	// median host speed scale.
	res.set("setup_s", setup.Seconds()*median(scales), "s")
	res.set("compile_s", compile, "s")
	res.set("run_s", run, "s")
	res.set("unit_ms_p50", smoothQuantile(lat, 0.5), "ms")
	res.set("unit_ms_p90", smoothQuantile(lat, 0.9), "ms")
	res.set("alloc_mb", median(allocs)/(1<<20), "MiB")
	res.set("peak_rss_mb", peakRSS(), "MiB")
	res.set("sim_cycles", b.simCycles(samples), "cycles")
	res.set("speedup_geomean", b.speedupGeomean(samples), "x")
	res.set("ok_frac", float64(tl.attempted-tl.failed)/float64(tl.attempted), "ratio")

	fmt.Printf("workload %s seed %d (spec draw %d): %d units, %d (unit, leg) tasks, %d passes, %d samples, %d references computed in set-up, host speed scale median %.3f (range %.3f–%.3f)\n",
		b.name, seed, b.draw, len(b.units), len(b.tasks), n, len(lat), b.missed, median(scales), quantile(scales, 0), quantile(scales, 1))
	b.printSpeedups(samples)
	return res, nil
}

// simCycles is the total simulated cycles of one pass over every task.
func (b *bench) simCycles(samples [][]sample) float64 {
	total := 0.0
	for _, ss := range samples {
		if len(ss) > 0 {
			total += ss[0].out.cycles
		}
	}
	return total
}

// cycleRatios maps each unit measured on both -O3 legs to its
// baseline/unseq cycle ratio.
func (b *bench) cycleRatios(samples [][]sample) map[*unit]float64 {
	base, unseq := map[*unit]float64{}, map[*unit]float64{}
	for i, t := range b.tasks {
		if len(samples[i]) == 0 {
			continue
		}
		switch t.l {
		case legBase:
			base[t.u] = samples[i][0].out.cycles
		case legUnseq:
			unseq[t.u] = samples[i][0].out.cycles
		}
	}
	ratios := map[*unit]float64{}
	for u, c := range base {
		if o, ok := unseq[u]; ok && o > 0 {
			ratios[u] = c / o
		}
	}
	return ratios
}

// speedupGeomean is the geometric mean of the baseline/unseq cycle
// ratios; a workload with a single leg has nothing to compare and
// reports 1.
func (b *bench) speedupGeomean(samples [][]sample) float64 {
	ratios := b.cycleRatios(samples)
	if len(ratios) == 0 {
		return 1
	}
	logSum := 0.0
	for _, r := range ratios {
		logSum += math.Log(r)
	}
	return math.Exp(logSum / float64(len(ratios)))
}

// printSpeedups prints each unit's baseline/unseq cycle ratio on its
// own row.
func (b *bench) printSpeedups(samples [][]sample) {
	ratios := b.cycleRatios(samples)
	for _, u := range b.units {
		if r, ok := ratios[u]; ok {
			fmt.Printf("  %-20s baseline/unseq cycles %.6f\n", u.name, r)
		}
	}
}

// settle collects the garbage earlier tasks left and returns the freed
// memory to the operating system, untimed, so that every task starts
// from the same heap: one unit's heap (the O0 run of perl-toke leaves
// gigabytes) is then not charged to the timings of the next, and the
// runtime does not return it in the background while they run.
func settle() { debug.FreeOSMemory() }

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSS is the process's peak resident set size in MiB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// smoothQuantile is the q-quantile of the positive samples xs, each
// spread as a log-normal of width latencyBandwidth around its value.
// A workload's latencies cluster by unit with gaps between the
// clusters, and a plain quantile that falls in a gap jumps from one
// cluster's edge to the other's as single samples move; the smoothed
// quantile moves with them continuously.
func smoothQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logs := make([]float64, len(xs))
	for i, x := range xs {
		logs[i] = math.Log(x)
	}
	cdf := func(y float64) float64 {
		sum := 0.0
		for _, l := range logs {
			sum += 0.5 * math.Erfc((l-y)/(latencyBandwidth*math.Sqrt2))
		}
		return sum / float64(len(logs))
	}
	lo, hi := quantile(logs, 0)-5*latencyBandwidth, quantile(logs, 1)+5*latencyBandwidth
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Exp((lo + hi) / 2)
}
