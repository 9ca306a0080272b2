package driver

import (
	"flag"
	"fmt"
	"sync/atomic"

	"repro/internal/interp"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// Engine names accepted by Config.Engine and the -engine flag.
const (
	// EngineVM is the compiled-bytecode run leg (internal/vm), the
	// default: bit-identical cycles/results/sanitizer verdicts to the
	// tree-walker, an order of magnitude faster.
	EngineVM = "vm"
	// EngineTree is the tree-walking interpreter (internal/interp),
	// retained as the differential oracle.
	EngineTree = "tree"
)

// Machine is the engine-agnostic execution surface; *interp.Machine and
// *vm.Machine both satisfy it, and the equivalence gate holds their
// observable behaviour bit-identical.
type Machine interface {
	RunArgs(name string, args ...int64) (int64, error)
	TotalCycles() float64
	SanitizerFailures() []*interp.SanitizerFailure
	Report(*telemetry.Session)
	GlobalAddr(name string) (int64, bool)
	ReadF64(addr int64) float64
	ReadI64(addr int64) int64
	WriteF64(addr int64, v float64)
	WriteI64(addr int64, v int64)
	// Release recycles the machine's memory image; the machine must not
	// run again afterwards, but results already read stay valid.
	Release()
}

var defaultEngine atomic.Value // string

// SetDefaultEngine installs the process-wide engine default (the
// -engine flag). Like SetDefaultJobs, it applies to every compilation
// the process triggers unless Config.Engine overrides it.
func SetDefaultEngine(e string) error {
	switch e {
	case EngineVM, EngineTree:
		defaultEngine.Store(e)
		return nil
	}
	return fmt.Errorf("unknown engine %q (want %q or %q)", e, EngineVM, EngineTree)
}

// DefaultEngine returns the process-wide engine default.
func DefaultEngine() string {
	if e, ok := defaultEngine.Load().(string); ok {
		return e
	}
	return EngineVM
}

// engine resolves the compilation's effective engine.
func (c *Compilation) engine() string {
	if c.cfg.Engine != "" {
		return c.cfg.Engine
	}
	return DefaultEngine()
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

// NewMachineOn builds a fresh machine on the named engine ("" uses the
// compilation's configured engine).
func (c *Compilation) NewMachineOn(engine string) Machine {
	costs := interp.DefaultCosts()
	if c.cfg.Costs != nil {
		costs = *c.cfg.Costs
	}
	if engine == "" {
		engine = c.engine()
	}
	if engine == EngineTree {
		return interp.New(c.Module, costs)
	}
	return vm.New(c.Program(), costs)
}

// RunOn executes the entry function (default main) on the named engine
// ("" = configured) and returns (result, simulated cycles).
func (c *Compilation) RunOn(engine, entry string, args ...int64) (int64, float64, error) {
	m := c.NewMachineOn(engine)
	if entry == "" {
		entry = "main"
	}
	stop := c.cfg.Telemetry.Span("phase/interp")
	v, err := m.RunArgs(entry, args...)
	stop()
	m.Report(c.cfg.Telemetry)
	cycles := m.TotalCycles()
	// The machine is dead past this point; a vm machine recycles its
	// memory image so repeated runs stop allocating one per leg.
	m.Release()
	if err != nil {
		return 0, 0, err
	}
	return v, cycles, nil
}

// EngineFlag carries the shared -engine flag each CLI registers.
type EngineFlag struct {
	Engine string
}

// RegisterEngineFlag registers -engine on fs.
func RegisterEngineFlag(fs *flag.FlagSet) *EngineFlag {
	ef := &EngineFlag{}
	fs.StringVar(&ef.Engine, "engine", EngineVM,
		"execution engine for the run leg: vm (compiled bytecode) or tree (tree-walking oracle)")
	return ef
}

// Apply installs the flag value as the process-wide default.
func (ef *EngineFlag) Apply() error { return SetDefaultEngine(ef.Engine) }
