package driver

import (
	"fmt"

	"repro/internal/profile"
)

// Profiler is the optional engine surface for cycle attribution; both
// *vm.Machine (per-pc counters resolved through the bytecode line
// table) and *interp.Machine (per-IR-instruction counters) satisfy it.
type Profiler interface {
	EnableProfile()
	ProfileSamples() []profile.Sample
}

// ProfileRun executes the entry function (default main) on the named
// engine ("" = configured) with cycle attribution enabled and returns
// the result, total simulated cycles, and the collected profile.
//
// The invariant shared by both engines: the sum of attributed cycles
// equals TotalCycles minus the top-level CallBase charge (the only
// cost paid before the first dispatch point).
func (c *Compilation) ProfileRun(engine, entry string, args ...int64) (int64, float64, *profile.Profile, error) {
	m := c.NewMachineOn(engine)
	p, ok := m.(Profiler)
	if !ok {
		return 0, 0, nil, fmt.Errorf("engine %T does not support profiling", m)
	}
	p.EnableProfile()
	if entry == "" {
		entry = "main"
	}
	stop := c.cfg.Telemetry.Span("phase/interp")
	v, err := m.RunArgs(entry, args...)
	stop()
	m.Report(c.cfg.Telemetry)
	cycles := m.TotalCycles()
	if err != nil {
		return 0, 0, nil, err
	}
	eng := engine
	if eng == "" {
		eng = c.engine()
	}
	prof := &profile.Profile{Unit: c.Name, Engine: eng, Samples: p.ProfileSamples()}
	m.Release()
	return v, cycles, prof, nil
}
