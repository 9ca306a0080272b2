// Package obsserver is the whole-run diagnostics bundle shared by the
// CLIs: a CPU profile (-profile-cpu), an end-of-run heap profile
// (-profile-mem), and the directory crash-<unit>.json flight-recorder
// dumps land in (-crash-dir). Every command wires it the same way:
// RegisterFlags, Start, defer Close, and Exit on error paths so an
// in-progress CPU profile is flushed before the process exits.
package obsserver

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	rtpprof "runtime/pprof"
	"sync"
)

// Live handles, so the CLIs' error paths can flush profiles before
// os.Exit without threading the handle everywhere: Start registers,
// Close unregisters, and Exit closes whatever is still open. A leaked
// *os.File would be reclaimed at exit anyway, but an unflushed CPU
// profile is a real loss.
var (
	liveMu sync.Mutex
	live   []*Handle
)

func register(h *Handle) {
	liveMu.Lock()
	live = append(live, h)
	liveMu.Unlock()
}

func unregister(h *Handle) {
	liveMu.Lock()
	for i, l := range live {
		if l == h {
			live = append(live[:i], live[i+1:]...)
			break
		}
	}
	liveMu.Unlock()
}

// CloseAll closes every still-open Handle, newest first (reverse start
// order, like deferred closes would run). It returns the first error.
func CloseAll() error {
	liveMu.Lock()
	open := append([]*Handle(nil), live...)
	liveMu.Unlock()
	var first error
	for i := len(open) - 1; i >= 0; i-- {
		if err := open[i].Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Exit is the os.Exit every observability-carrying CLI should use on
// its error and early-return paths: it closes all live handles (CPU
// profile flushed, heap profile written) and then exits with code.
func Exit(code int) {
	CloseAll() //nolint:errcheck // already exiting; nothing to report to
	os.Exit(code)
}

// Flags is the observability flag bundle registered by every CLI.
type Flags struct {
	// CPUProfile, if non-empty, records a whole-run CPU profile
	// (-profile-cpu).
	CPUProfile string
	// MemProfile, if non-empty, writes a heap profile at Close
	// (-profile-mem).
	MemProfile string
	// CrashDir is where crash-<unit>.json flight-recorder dumps land
	// (-crash-dir); empty means the current directory.
	CrashDir string
}

// RegisterFlags binds the observability flags onto fs (use
// flag.CommandLine for the process flag set).
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.CPUProfile, "profile-cpu", "", "write a whole-run CPU profile to `path`")
	fs.StringVar(&f.MemProfile, "profile-mem", "", "write an end-of-run heap profile to `path`")
	fs.StringVar(&f.CrashDir, "crash-dir", "",
		"write crash-<unit>.json flight-recorder dumps under `dir` (default: current directory)")
	return f
}

// Handle owns the profiles Start began; Close flushes them.
type Handle struct {
	flags   *Flags
	cpuFile *os.File
}

// Start begins whatever profiling the flags ask for and returns a
// Handle the caller must Close at exit. With zero flags set it returns
// an inert Handle, so callers can wire it unconditionally.
func (f *Flags) Start() (*Handle, error) {
	h := &Handle{flags: f}
	if f.CPUProfile != "" {
		out, err := os.Create(f.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("profile-cpu: %w", err)
		}
		if err := rtpprof.StartCPUProfile(out); err != nil {
			out.Close()
			return nil, fmt.Errorf("profile-cpu: %w", err)
		}
		h.cpuFile = out
	}
	register(h)
	return h, nil
}

// Close flushes the CPU profile and writes the heap profile. Safe on a
// nil Handle and idempotent enough for a defer alongside an explicit
// call.
func (h *Handle) Close() error {
	if h == nil {
		return nil
	}
	unregister(h)
	var first error
	if h.cpuFile != nil {
		rtpprof.StopCPUProfile()
		if err := h.cpuFile.Close(); err != nil && first == nil {
			first = fmt.Errorf("profile-cpu: %w", err)
		}
		h.cpuFile = nil
	}
	if h.flags != nil && h.flags.MemProfile != "" {
		if err := writeHeapProfile(h.flags.MemProfile); err != nil && first == nil {
			first = fmt.Errorf("profile-mem: %w", err)
		}
		h.flags = nil
	}
	return first
}

func writeHeapProfile(path string) error {
	runtime.GC() // settle live-object accounting before the snapshot
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rtpprof.WriteHeapProfile(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
