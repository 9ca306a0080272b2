package repro_test

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/workload"
)

// profilerCorpus is the program set the profiler contract is pinned on:
// kernels that exercise every clone-making pass (LICM scalar promotion,
// vectorization, unrolling, inlining) plus the intro examples.
func profilerCorpus() []workload.Program {
	progs := []workload.Program{
		workload.IntroMinmax(64),
		workload.IntroImagick(3),
		workload.RestrictScale(),
		workload.AnnotatedScale(),
		workload.PartialOverlapKernel(),
	}
	progs = append(progs, workload.PolybenchKernels()...)
	progs = append(progs, workload.ExtraPolybenchKernels()...)
	return progs
}

// TestSpanCoverage pins the line-table invariant the profiler depends
// on: after the full O3 pipeline — including every pass that clones or
// creates instructions (unroll, vectorize, LICM, inline, simplify,
// memcpyopt) — every instruction still carries a valid source span.
func TestSpanCoverage(t *testing.T) {
	cfgs := []struct {
		name string
		cfg  driver.Config
	}{
		{"O0", driver.Config{NoOpt: true}},
		{"O3-baseline", driver.Config{}},
		{"O3-ooelala", driver.Config{OOElala: true}},
	}
	for _, p := range profilerCorpus() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			for _, cc := range cfgs {
				cfg := cc.cfg
				cfg.Files = workload.Files()
				c, err := driver.Compile(p.Name, p.Source, cfg)
				if err != nil {
					t.Fatalf("%s compile: %v", cc.name, err)
				}
				for _, fn := range c.Module.Funcs {
					for _, blk := range fn.Blocks {
						for _, in := range blk.Instrs {
							if !in.Span.IsValid() {
								t.Errorf("%s: %s/%s: %s instruction lost its source span",
									cc.name, fn.Name, blk.Name, in.Op)
							}
						}
					}
				}
			}
		})
	}
}

// toMilli converts a cycle figure back to the engines' integer
// milli-cycles. Every figure they report is an exact milli-cycle count
// over 1000, so the rounding recovers it exactly.
func toMilli(x float64) int64 { return int64(math.Round(x * 1000)) }

// profileMilli is a profile's attributed total in milli-cycles.
func profileMilli(p *profile.Profile) int64 {
	var n int64
	for i := range p.Samples {
		n += toMilli(p.Samples[i].Cycles)
	}
	return n
}

// TestProfileAttributionParity pins the profiler's accounting contract
// on both engines, exactly in integer milli-cycles: the attributed total
// must equal the machine's total minus the top-level CallBase charge
// (the only cost paid before the first dispatch point), and the vm and
// tree-walker must attribute the same total.
func TestProfileAttributionParity(t *testing.T) {
	callBase := interp.DefaultCosts().Milli().CallBase
	for _, p := range profilerCorpus() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			c, err := driver.Compile(p.Name, p.Source, driver.Config{
				OOElala: true, Files: workload.Files(),
			})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			tr, tErr := c.Exec(driver.RunOpts{Engine: driver.EngineTree, Profile: true})
			vr, vErr := c.Exec(driver.RunOpts{Engine: driver.EngineVM, Profile: true})
			tRes, tCyc, tProf := tr.Value, tr.Cycles, tr.Profile
			vRes, vCyc, vProf := vr.Value, vr.Cycles, vr.Profile
			if (tErr == nil) != (vErr == nil) {
				t.Fatalf("error divergence: tree=%v vm=%v", tErr, vErr)
			}
			if tErr != nil {
				t.Skipf("run errors on both engines: %v", tErr)
			}
			if tRes != vRes {
				t.Fatalf("result divergence: tree=%d vm=%d", tRes, vRes)
			}
			if tCyc != vCyc {
				t.Fatalf("cycle divergence: tree=%v vm=%v", tCyc, vCyc)
			}
			tSum, vSum := profileMilli(tProf), profileMilli(vProf)
			if want := toMilli(tCyc) - callBase; tSum != want {
				t.Errorf("tree attribution leak: attributed %d milli-cycles, want %d", tSum, want)
			}
			if want := toMilli(vCyc) - callBase; vSum != want {
				t.Errorf("vm attribution leak: attributed %d milli-cycles, want %d", vSum, want)
			}
			if tSum != vSum {
				t.Errorf("engine attribution divergence: tree=%d vm=%d milli-cycles", tSum, vSum)
			}
			// Retire counts differ only by fusion: each fused pc
			// retires once but covers two or three IR instructions.
			if got, want := vProf.TotalRetired()+fusedSavings(vProf), tProf.TotalRetired(); got != want {
				t.Errorf("retire divergence: vm %d + fused %d = %d, tree %d",
					vProf.TotalRetired(), fusedSavings(vProf), got, want)
			}
		})
	}
}

// fusedSavings counts retires the vm saved through superinstruction
// fusion: a fused chain's dispatch covers vm.OpSteps IR instructions
// but retires once.
func fusedSavings(p *profile.Profile) int64 {
	steps := vm.OpSteps()
	var n int64
	for i := range p.Samples {
		if k := steps[p.Samples[i].Op]; k > 1 {
			n += int64(k-1) * p.Samples[i].Retired
		}
	}
	return n
}

// renderAll renders every profile artifact form and returns the bytes.
func renderAll(t *testing.T, c *driver.Compilation, src string) (pprof, annotate, folded []byte) {
	t.Helper()
	r, err := c.Exec(driver.RunOpts{Engine: driver.EngineVM, Profile: true})
	if err != nil {
		t.Fatalf("profile run: %v", err)
	}
	prof := r.Profile
	var pb, ab, fb bytes.Buffer
	if err := profile.WritePprof(&pb, prof); err != nil {
		t.Fatalf("pprof: %v", err)
	}
	sources := map[string]string{prof.Unit: src}
	for k, v := range workload.Files() {
		sources[k] = v
	}
	if err := profile.WriteAnnotate(&ab, prof, sources); err != nil {
		t.Fatalf("annotate: %v", err)
	}
	if err := profile.WriteFolded(&fb, prof); err != nil {
		t.Fatalf("folded: %v", err)
	}
	return pb.Bytes(), ab.Bytes(), fb.Bytes()
}

// TestProfileDeterminism pins byte-identical profile artifacts across
// compilation parallelism (-j1 vs -j4) and across repeated runs of the
// same compilation — the profiler inherits the toolchain's determinism
// contract.
func TestProfileDeterminism(t *testing.T) {
	p := workload.Bicg()
	compileAt := func(jobs int) *driver.Compilation {
		c, err := driver.Compile(p.Name, p.Source, driver.Config{
			OOElala: true, Files: workload.Files(), Jobs: jobs,
		})
		if err != nil {
			t.Fatalf("compile -j%d: %v", jobs, err)
		}
		return c
	}
	c1 := compileAt(1)
	c4 := compileAt(4)
	pb1, ab1, fb1 := renderAll(t, c1, p.Source)
	pb4, ab4, fb4 := renderAll(t, c4, p.Source)
	pb1b, ab1b, fb1b := renderAll(t, c1, p.Source)
	if !bytes.Equal(pb1, pb4) {
		t.Error("pprof bytes differ between -j1 and -j4 compilations")
	}
	if !bytes.Equal(ab1, ab4) {
		t.Error("annotate bytes differ between -j1 and -j4 compilations")
	}
	if !bytes.Equal(fb1, fb4) {
		t.Error("folded bytes differ between -j1 and -j4 compilations")
	}
	if !bytes.Equal(pb1, pb1b) || !bytes.Equal(ab1, ab1b) || !bytes.Equal(fb1, fb1b) {
		t.Error("profile artifacts differ between repeated runs of the same compilation")
	}
	if len(pb1) == 0 || len(ab1) == 0 || len(fb1) == 0 {
		t.Error("empty profile artifact")
	}
}

// TestProfileSourceAttribution pins the headline acceptance numbers: on
// bicg the hottest flat line is one of kernel_bicg's source lines in
// bicg (the frame `go tool pprof -top -lines` lists first), and at least
// 90% of attributed cycles land on kernel_bicg's lines.
func TestProfileSourceAttribution(t *testing.T) {
	p := workload.Bicg()
	c, err := driver.Compile(p.Name, p.Source, driver.Config{
		OOElala: true, Files: workload.Files(),
	})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	r, err := c.Exec(driver.RunOpts{Engine: driver.EngineVM, Profile: true})
	if err != nil {
		t.Fatalf("profile run: %v", err)
	}
	prof := r.Profile
	flat := profile.Flatten(prof)
	if hot := flat[0]; hot.Fn != "kernel_bicg" || hot.File != p.Name || hot.Line <= 0 {
		t.Errorf("hottest line is %s at %s:%d, want kernel_bicg at a %s:N line", hot.Fn, hot.File, hot.Line, p.Name)
	}
	total := prof.TotalCycles()
	kernel := 0.0
	unlocated := 0.0
	for _, fl := range flat {
		if fl.File == "" || fl.Line <= 0 {
			unlocated += fl.Cycles
			continue
		}
		if fl.Fn == "kernel_bicg" {
			kernel += fl.Cycles
		}
	}
	if frac := kernel / total; frac < 0.90 {
		t.Errorf("kernel_bicg loop lines got %.1f%% of cycles, want >= 90%%", 100*frac)
	}
	if frac := unlocated / total; frac > 0.01 {
		t.Errorf("%.1f%% of cycles have no source location, want <= 1%%", 100*frac)
	}
}

// TestVMOpMixTelemetry pins the opcode-mix satellite: a profiled vm run
// exports vm/op_<name> retire counters into telemetry, and their sum
// equals the machine's executed-instruction count.
func TestVMOpMixTelemetry(t *testing.T) {
	p := workload.Bicg()
	tel := telemetry.New(telemetry.Config{Metrics: true})
	c, err := driver.Compile(p.Name, p.Source, driver.Config{
		OOElala: true, Files: workload.Files(), Telemetry: tel,
	})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	r, err := c.Exec(driver.RunOpts{Engine: driver.EngineVM, Profile: true})
	if err != nil {
		t.Fatalf("profile run: %v", err)
	}
	prof := r.Profile
	snap := tel.Snapshot()
	var opSum, executed int64
	seen := 0
	for _, ctr := range snap.Counters {
		if len(ctr.Name) > 6 && ctr.Name[:6] == "vm/op_" {
			opSum += ctr.Value
			seen++
		}
		if ctr.Name == "interp/instrs_executed" {
			executed = ctr.Value
		}
	}
	if seen == 0 {
		t.Fatal("no vm/op_* counters in telemetry after a profiled vm run")
	}
	if opSum != prof.TotalRetired() {
		t.Errorf("opcode-mix sum %d != profile retired %d", opSum, prof.TotalRetired())
	}
	// Executed counts IR instructions; the op mix counts dispatches, so
	// each fused chain appears once but counts one execution per IR
	// instruction.
	if got := opSum + fusedSavings(prof); got != executed {
		t.Errorf("op mix %d + fused %d = %d != instrs_executed %d",
			opSum, fusedSavings(prof), got, executed)
	}
}

// TestBenefitReport checks the committed ooelala-benefit/v1 artifact
// (BENCH_attribution.json, written by ooebench -attribute): the vm run
// leg produced it, bicg saves cycles, at least one π pair is credited
// with bicg's savings, and every credited pair carries a provenance id.
// Regenerate the file and rerun this test to check a fresh report.
func TestBenefitReport(t *testing.T) {
	raw, err := os.ReadFile("BENCH_attribution.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema  string `json:"schema"`
		Engine  string `json:"engine"`
		Kernels []struct {
			Kernel    string  `json:"kernel"`
			Saved     float64 `json:"saved"`
			Functions []struct {
				Fn    string `json:"fn"`
				Pairs []struct {
					Meta int `json:"meta"`
				} `json:"pairs"`
			} `json:"functions"`
		} `json:"kernels"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "ooelala-benefit/v1" || rep.Engine != driver.EngineVM {
		t.Errorf("schema %q engine %q, want ooelala-benefit/v1 on vm", rep.Schema, rep.Engine)
	}
	bicgs, bicgPairs := 0, 0
	for _, k := range rep.Kernels {
		if k.Kernel == "bicg" {
			if bicgs == 0 && k.Saved <= 0 {
				t.Errorf("bicg saved %v cycles, want > 0", k.Saved)
			}
			bicgs++
		}
		for _, fn := range k.Functions {
			for _, p := range fn.Pairs {
				if p.Meta <= 0 {
					t.Errorf("%s/%s: π pair without provenance (meta %d)", k.Kernel, fn.Fn, p.Meta)
				}
				if k.Kernel == "bicg" {
					bicgPairs++
				}
			}
		}
	}
	if bicgs == 0 {
		t.Error("no bicg entry")
	}
	if bicgPairs == 0 {
		t.Error("no π pair credited with bicg's savings")
	}
}
