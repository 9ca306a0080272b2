package driver

import (
	"repro/internal/interp"
	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// Engine names accepted by RunOpts.Engine and NewMachineOn.
const (
	// EngineVM is the compiled-bytecode run leg (internal/vm), the
	// default: identical milli-cycle totals, results and sanitizer
	// verdicts to the tree-walker, an order of magnitude faster.
	EngineVM = "vm"
	// EngineTree is the tree-walking interpreter (internal/interp),
	// retained as the differential oracle.
	EngineTree = "tree"
)

// Machine is the engine-agnostic execution surface; *interp.Machine and
// *vm.Machine both satisfy it, and the equivalence gate holds their
// observable behaviour identical.
type Machine interface {
	RunArgs(name string, args ...int64) (int64, error)
	TotalCycles() float64
	SanitizerFailures() []*interp.SanitizerFailure
	Report(*telemetry.Session)
	// EnableProfile turns on cycle attribution (call before the run);
	// ProfileSamples returns it: per-pc counters resolved through the
	// bytecode line table on the vm, per-IR-instruction counters on the
	// tree-walker.
	EnableProfile()
	ProfileSamples() []profile.Sample
	// Release recycles the machine's memory image; the machine must not
	// run again afterwards, but results already read stay valid.
	Release()
}

// Program returns the compiled bytecode for the module, compiling it on
// first use and caching it — the whole point of the vm leg is that one
// compile amortizes over many runs.
func (c *Compilation) Program() *vm.Program {
	c.vmOnce.Do(func() {
		stop := c.cfg.Telemetry.Span("phase/vm_compile")
		c.vmProg = vm.Compile(c.Module)
		stop()
	})
	return c.vmProg
}

// NewMachineOn builds a fresh machine on the named engine ("" is the
// vm).
func (c *Compilation) NewMachineOn(engine string) Machine {
	costs := interp.DefaultCosts()
	if c.cfg.Costs != nil {
		costs = *c.cfg.Costs
	}
	if engine == EngineTree {
		return interp.New(c.Module, costs)
	}
	return vm.New(c.Program(), costs)
}

// RunOpts selects one execution of a compiled unit.
type RunOpts struct {
	// Engine is EngineVM ("" too) or EngineTree, the oracle that tests
	// and ooefuzz -cross-engine compare the vm against.
	Engine string
	// Entry is the function to call ("" = main) with integer Args.
	Entry string
	Args  []int64
	// Profile enables cycle attribution into RunResult.Profile.
	Profile bool
}

// RunResult is what one execution observed.
type RunResult struct {
	Value int64
	// Cycles is the simulated cycle count: the engine's exact integer
	// milli-cycle total over 1000.
	Cycles float64
	// Failures are the sanitizer violations (only a Sanitize build
	// carries the checks that record them).
	Failures []*interp.SanitizerFailure
	// Profile is set when RunOpts.Profile was. Its attributed cycles sum,
	// exactly in milli-cycles, to Cycles minus the top-level CallBase
	// charge (the only cost paid before the first dispatch point) on
	// both engines.
	Profile *profile.Profile
}

// Exec is the run leg: it builds a machine on the chosen engine, runs
// the entry function under a phase/run span, reports the machine's
// counters to the compilation's telemetry session, and releases the
// machine on every path.
func (c *Compilation) Exec(o RunOpts) (RunResult, error) {
	m := c.NewMachineOn(o.Engine)
	defer m.Release()
	if o.Profile {
		m.EnableProfile()
	}
	entry := o.Entry
	if entry == "" {
		entry = "main"
	}
	stop := c.cfg.Telemetry.Span("phase/run")
	v, err := m.RunArgs(entry, o.Args...)
	stop()
	m.Report(c.cfg.Telemetry)
	if err != nil {
		return RunResult{}, err
	}
	r := RunResult{Value: v, Cycles: m.TotalCycles(), Failures: m.SanitizerFailures()}
	if o.Profile {
		engine := o.Engine
		if engine == "" {
			engine = EngineVM
		}
		r.Profile = &profile.Profile{Unit: c.Name, Engine: engine, Samples: m.ProfileSamples()}
	}
	return r, nil
}

// Run executes the entry function (default main) on the vm and returns
// (result, simulated cycles).
func (c *Compilation) Run(entry string, args ...int64) (int64, float64, error) {
	r, err := c.Exec(RunOpts{Entry: entry, Args: args})
	return r.Value, r.Cycles, err
}
