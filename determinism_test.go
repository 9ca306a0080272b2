package repro_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/driver"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// compileAt compiles p with the given worker count and returns every
// observable output: the IR dump, pass/AA statistics, predicate counts,
// the metrics+remarks snapshot, and the interpreter result.
func compileAt(t *testing.T, p workload.Program, ooe bool, jobs int) (string, *telemetry.Snapshot, int64, float64) {
	t.Helper()
	tel := telemetry.New(telemetry.Config{Metrics: true, Remarks: true})
	c, err := driver.Compile(p.Name, p.Source, driver.Config{
		OOElala: ooe, Files: workload.Files(), Jobs: jobs, Telemetry: tel,
	})
	if err != nil {
		t.Fatalf("%s (ooe=%v, -j %d): %v", p.Name, ooe, jobs, err)
	}
	dump := fmt.Sprintf("%s\nstats=%v aa=%v preds=%d/%d\n",
		c.Module.String(), c.PassStats, c.AAStats, c.FinalPreds, c.UniqueFinalPreds)
	res, cycles, err := c.Run("")
	if err != nil {
		t.Fatalf("%s (ooe=%v, -j %d) run: %v", p.Name, ooe, jobs, err)
	}
	// Run on both engines: determinism must hold per engine AND the
	// two engines must agree bit-for-bit on (result, cycles).
	tr, err := c.Exec(driver.RunOpts{Engine: driver.EngineTree})
	if err != nil {
		t.Fatalf("%s (ooe=%v, -j %d) tree run: %v", p.Name, ooe, jobs, err)
	}
	vr, err := c.Exec(driver.RunOpts{Engine: driver.EngineVM})
	if err != nil {
		t.Fatalf("%s (ooe=%v, -j %d) vm run: %v", p.Name, ooe, jobs, err)
	}
	if tr.Value != vr.Value || tr.Cycles != vr.Cycles {
		t.Fatalf("%s (ooe=%v, -j %d): engine divergence: tree=(%d, %v) vm=(%d, %v)",
			p.Name, ooe, jobs, tr.Value, tr.Cycles, vr.Value, vr.Cycles)
	}
	return dump, tel.Snapshot(), res, cycles
}

// TestParallelCompileDeterminism is the -j differential oracle: every
// workload program must compile to byte-identical IR, statistics,
// remarks, and interpreter behaviour at -j 1 (the sequential pipeline)
// and -j 4 (the parallel scheduler), under both compiler
// configurations. This is the property that makes the worker pool safe
// to default on: parallelism changes wall-clock time and nothing else.
func TestParallelCompileDeterminism(t *testing.T) {
	var progs []workload.Program
	progs = append(progs, workload.IntroMinmax(64), workload.IntroImagick(3))
	progs = append(progs, workload.PolybenchKernels()...)
	progs = append(progs, workload.ExtraPolybenchKernels()...)
	progs = append(progs,
		workload.RestrictScale(), workload.AnnotatedScale(), workload.PartialOverlapKernel())
	for _, cs := range workload.Fig2CaseStudies() {
		progs = append(progs, cs.Program)
	}
	if !testing.Short() {
		for _, b := range workload.SpecSuite() {
			progs = append(progs, workload.GenerateUnits(b)...)
		}
	}
	for _, p := range progs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			for _, ooe := range []bool{false, true} {
				seqIR, seqSnap, seqRes, seqCyc := compileAt(t, p, ooe, 1)
				parIR, parSnap, parRes, parCyc := compileAt(t, p, ooe, 4)
				if seqIR != parIR {
					t.Errorf("ooe=%v: IR/stats dump differs between -j 1 and -j 4", ooe)
				}
				if !reflect.DeepEqual(seqSnap.Counters, parSnap.Counters) {
					t.Errorf("ooe=%v: counters differ:\n-j 1: %+v\n-j 4: %+v",
						ooe, seqSnap.Counters, parSnap.Counters)
				}
				if !reflect.DeepEqual(seqSnap.Remarks, parSnap.Remarks) {
					t.Errorf("ooe=%v: remark streams differ (%d vs %d remarks)",
						ooe, len(seqSnap.Remarks), len(parSnap.Remarks))
				}
				if seqRes != parRes || seqCyc != parCyc {
					t.Errorf("ooe=%v: execution differs: -j 1 → (%d, %.0f), -j 4 → (%d, %.0f)",
						ooe, seqRes, seqCyc, parRes, parCyc)
				}
			}
		})
	}
}

// TestRepeatedCompileStability guards the fix for the promotion-order
// bug: recompiling the same unit in one process must be byte-identical
// (no map-iteration order may leak into codegen decisions).
func TestRepeatedCompileStability(t *testing.T) {
	progs := []workload.Program{workload.IntroMinmax(64), workload.IntroImagick(3)}
	progs = append(progs, workload.PolybenchKernels()...)
	for _, p := range progs {
		first, _, _, _ := compileAt(t, p, true, 1)
		for i := 0; i < 3; i++ {
			again, _, _, _ := compileAt(t, p, true, 1)
			if again != first {
				t.Fatalf("%s: recompile %d produced different output", p.Name, i)
			}
		}
	}
}
