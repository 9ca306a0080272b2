package repro_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/workload"
)

// stripEnginePrefix removes the engine-identifying error prefix so
// error bodies can be compared across engines ("interp: division by
// zero in f" vs "vm: division by zero in f").
func stripEnginePrefix(err error) string {
	if err == nil {
		return ""
	}
	s := err.Error()
	s = strings.TrimPrefix(s, "interp: ")
	s = strings.TrimPrefix(s, "vm: ")
	return s
}

// frameReuse has a callee write its local array and return, then a
// sibling call with the same frame shape read its own never-written
// slots, which sit at the addresses the first call just released. At O0
// both engines must read zero there (frameReuseWant): frame addresses
// are reused and allocation clears the range it hands out.
var frameReuse = workload.Program{Name: "frame-reuse", Source: `
int fill(int k) {
  int buf[64];
  for (int i = 0; i < 64; i++) buf[i] = k + i;
  return buf[k & 63];
}
int peek(int k) {
  int buf[64];
  int s = 0;
  for (int i = 0; i < 64; i++) s += buf[i] * (i + k);
  return s;
}
int main() {
  int filled = 0, stale = 0;
  for (int n = 1; n <= 8; n++) {
    filled += fill(n);
    stale += peek(n);
  }
  return filled * 1000 + stale;
}
`}

const frameReuseWant = 72 * 1000

// equivCorpus is the full evaluation corpus the vm must match the
// tree-walker on: every workload program plus the minimized fuzz
// regressions.
func equivCorpus(t *testing.T) []workload.Program {
	t.Helper()
	var progs []workload.Program
	progs = append(progs, workload.IntroMinmax(64), workload.IntroImagick(3))
	progs = append(progs, workload.PolybenchKernels()...)
	progs = append(progs, workload.ExtraPolybenchKernels()...)
	progs = append(progs,
		workload.RestrictScale(), workload.AnnotatedScale(), workload.PartialOverlapKernel(), frameReuse)
	for _, cs := range workload.Fig2CaseStudies() {
		progs = append(progs, cs.Program)
	}
	if !testing.Short() {
		for _, b := range workload.SpecSuite() {
			progs = append(progs, workload.GenerateUnits(b)...)
		}
	}
	ents, err := os.ReadDir(filepath.Join("testdata", "fuzz", "regressions"))
	if err != nil {
		t.Fatalf("reading regression corpus: %v", err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".c") {
			continue
		}
		src, err := os.ReadFile(filepath.Join("testdata", "fuzz", "regressions", e.Name()))
		if err != nil {
			t.Fatalf("reading %s: %v", e.Name(), err)
		}
		progs = append(progs, workload.Program{Name: "regression/" + e.Name(), Source: string(src)})
	}
	return progs
}

// TestEngineEquivalence is the vm's correctness contract: over the full
// evaluation corpus, under every compiler configuration, the bytecode
// engine must produce identical results and cycle counts to the
// tree-walking oracle — the same integer milli-cycle total, not
// approximately equal.
func TestEngineEquivalence(t *testing.T) {
	cfgs := []struct {
		name string
		cfg  driver.Config
	}{
		{"O0", driver.Config{NoOpt: true}},
		{"O3-baseline", driver.Config{}},
		{"O3-ooelala", driver.Config{OOElala: true}},
	}
	for _, p := range equivCorpus(t) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			for _, cc := range cfgs {
				cfg := cc.cfg
				cfg.Files = workload.Files()
				c, err := driver.Compile(p.Name, p.Source, cfg)
				if err != nil {
					t.Fatalf("%s compile: %v", cc.name, err)
				}
				tr, tErr := c.Exec(driver.RunOpts{Engine: driver.EngineTree})
				vr, vErr := c.Exec(driver.RunOpts{Engine: driver.EngineVM})
				tRes, tCyc, vRes, vCyc := tr.Value, tr.Cycles, vr.Value, vr.Cycles
				if stripEnginePrefix(tErr) != stripEnginePrefix(vErr) {
					t.Fatalf("%s: error divergence: tree=%v vm=%v", cc.name, tErr, vErr)
				}
				if tErr != nil {
					continue
				}
				if tRes != vRes {
					t.Errorf("%s: result divergence: tree=%d vm=%d", cc.name, tRes, vRes)
				}
				if toMilli(tCyc) != toMilli(vCyc) {
					t.Errorf("%s: cycle divergence: tree=%v vm=%v (Δ=%v)",
						cc.name, tCyc, vCyc, vCyc-tCyc)
				}
				// Only O0 pins clear-on-alloc: peek reads locals it never
				// wrote, which C leaves undefined, so the optimizer may fold
				// those loads to anything. Optimized builds still have to
				// agree across engines above.
				if p.Name == frameReuse.Name && cc.name == "O0" && tRes != frameReuseWant {
					t.Errorf("%s: result %d, want %d: a reused frame slot did not read as zero",
						cc.name, tRes, frameReuseWant)
				}
			}
		})
	}
}

// TestEngineEquivalenceSanitized pins the third leg of the contract:
// sanitizer verdicts. Both engines must report the same ubcheck
// failures — same function attribution, same faulting address, same
// provenance id, in the same order.
func TestEngineEquivalenceSanitized(t *testing.T) {
	for _, p := range equivCorpus(t) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			c, err := driver.Compile(p.Name, p.Source, driver.Config{
				OOElala: true, Sanitize: true, Files: workload.Files(),
			})
			if err != nil {
				t.Fatalf("sanitized compile: %v", err)
			}
			mt := c.NewMachineOn(driver.EngineTree)
			mv := c.NewMachineOn(driver.EngineVM)
			_, tErr := mt.RunArgs("main")
			_, vErr := mv.RunArgs("main")
			if stripEnginePrefix(tErr) != stripEnginePrefix(vErr) {
				t.Fatalf("error divergence: tree=%v vm=%v", tErr, vErr)
			}
			if mt.TotalCycles() != mv.TotalCycles() {
				t.Errorf("cycle divergence: tree=%v vm=%v", mt.TotalCycles(), mv.TotalCycles())
			}
			tf, vf := mt.SanitizerFailures(), mv.SanitizerFailures()
			if len(tf) != len(vf) {
				t.Fatalf("sanitizer verdict divergence: tree=%d failures, vm=%d", len(tf), len(vf))
			}
			for i := range tf {
				if !reflect.DeepEqual(*tf[i], *vf[i]) {
					t.Errorf("failure %d differs: tree=%+v vm=%+v", i, *tf[i], *vf[i])
				}
			}
		})
	}
}
