package driver

import (
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// runCounters is what a faulting run leaves in a machine and in the
// telemetry Exec reports before it returns the error.
type runCounters struct {
	err             string
	executed, milli int64
	telCycles       float64
	telExecuted     int64
}

func faultingRun(t *testing.T, src string, cfg Config, engine string) runCounters {
	t.Helper()
	tel := telemetry.New(telemetry.Config{Metrics: true})
	cfg.Telemetry = tel
	c, err := Compile("fault.c", src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rc runCounters
	_, runErr := c.Exec(RunOpts{Engine: engine})
	if runErr == nil {
		t.Fatalf("%s: run did not fault", engine)
	}
	rc.err = strings.TrimPrefix(strings.TrimPrefix(runErr.Error(), "interp: "), "vm: ")
	snap := tel.Snapshot()
	for _, g := range snap.Gauges {
		if g.Name == "interp/cycles" {
			rc.telCycles = g.Value
		}
	}
	for _, ctr := range snap.Counters {
		if ctr.Name == "interp/instrs_executed" {
			rc.telExecuted = ctr.Value
		}
	}
	// The machine itself, run again outside Exec.
	m := c.NewMachineOn(engine)
	defer m.Release()
	if _, err := m.RunArgs("main"); err == nil {
		t.Fatalf("%s: machine run did not fault", engine)
	}
	switch m := m.(type) {
	case *interp.Machine:
		rc.executed, rc.milli = m.Executed, m.MilliCycles()
	case *vm.Machine:
		rc.executed, rc.milli = m.Executed, m.MilliCycles()
	}
	return rc
}

// TestErrorPathAccounting pins the accounting of a run that faults in
// the middle of a block: the faulting instruction retires and pays its
// cost, nothing after it does. The vm charges whole segments up front
// and un-charges the rest of the segment on a handler error, so its
// retired count, exact milli-cycles and the interp/* telemetry Exec
// reports before returning the error must equal the tree-walker's.
func TestErrorPathAccounting(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"div-by-zero-after-store", `
int g, z;
int main() {
  g = 5;
  int r = 10 / z;
  g = r + 1;
  return r * 3;
}`, "division by zero"},
		{"bad-indirect-call", `
int g;
int (*fp)(int);
int main() {
  g = 5;
  int r = fp(g);
  g = r + 1;
  return r * 3;
}`, "bad indirect call"},
	}
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"O0", Config{NoOpt: true}},
		{"O3-ooelala", Config{OOElala: true}},
	}
	for _, tc := range cases {
		for _, cc := range cfgs {
			t.Run(tc.name+"/"+cc.name, func(t *testing.T) {
				tr := faultingRun(t, tc.src, cc.cfg, EngineTree)
				vr := faultingRun(t, tc.src, cc.cfg, EngineVM)
				if !strings.Contains(vr.err, tc.want) {
					t.Fatalf("vm error %q, want %q", vr.err, tc.want)
				}
				if tr != vr {
					t.Fatalf("fault accounting diverges:\ntree %+v\nvm   %+v", tr, vr)
				}
				if vr.executed == 0 || vr.telExecuted != vr.executed || vr.telCycles != float64(vr.milli)/1000 {
					t.Errorf("telemetry does not match the machine: %+v", vr)
				}
			})
		}
	}
}
