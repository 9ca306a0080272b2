// Package profile turns the run-leg engines' per-pc / per-instruction
// cycle counters into consumable artifacts: pprof protobuf for
// `go tool pprof`, a perf-annotate-style source listing, and folded
// stack lines for flamegraphs. The encoders are hand-rolled (no
// dependencies) and fully deterministic: identical counter state yields
// byte-identical output.
package profile

import (
	"fmt"
	"math"
	"sort"
)

// Sample is one attributed program point: a bytecode pc (vm) or an IR
// instruction (tree-walker), resolved through the line table to its
// originating source position.
type Sample struct {
	Fn      string  // containing function
	File    string  // source file ("" when the span was lost)
	Line    int     // 1-based source line (0 when unknown)
	Op      string  // opcode name (engine-level, e.g. "gep_load")
	Cycles  float64 // simulated cycles attributed to this point
	Retired int64   // dispatch/retire count
}

// Profile is a full run profile.
type Profile struct {
	Unit    string // translation unit / workload name
	Engine  string // "vm" or "tree"
	Samples []Sample
}

// Both engines count cycles in integer milli-cycles, so every sample's
// Cycles is an exact milli-cycle count over 1000. The aggregates below
// sum those integers and divide once: a float64 sum would re-acquire
// rounding in the low bits, and in an order-dependent way.

// Milli returns a cycle count in milli-cycles: exact for any count
// either engine reports, a sample's or a whole run's.
func Milli(cycles float64) int64 { return int64(math.Round(cycles * 1000)) }

// TotalCycles sums the attributed cycles over all samples.
func (p *Profile) TotalCycles() float64 {
	var t int64
	for i := range p.Samples {
		t += Milli(p.Samples[i].Cycles)
	}
	return float64(t) / 1000
}

// TotalRetired sums the retire counts over all samples.
func (p *Profile) TotalRetired() int64 {
	var t int64
	for i := range p.Samples {
		t += p.Samples[i].Retired
	}
	return t
}

// lineKey aggregates samples per (function, file, line).
type lineKey struct {
	fn   string
	file string
	line int
}

// FlatLine is one source line's aggregate, the unit of the pprof and
// text renderings.
type FlatLine struct {
	Fn      string
	File    string
	Line    int
	Cycles  float64
	Retired int64
}

// Flatten aggregates per (function, file, line), hottest first; ties
// break on (fn, file, line) so the order is deterministic.
func Flatten(p *Profile) []FlatLine {
	idx := make(map[lineKey]int)
	var out []FlatLine
	var millis []int64
	for i := range p.Samples {
		s := &p.Samples[i]
		k := lineKey{s.Fn, s.File, s.Line}
		j, ok := idx[k]
		if !ok {
			j = len(out)
			idx[k] = j
			out = append(out, FlatLine{Fn: s.Fn, File: s.File, Line: s.Line})
			millis = append(millis, 0)
		}
		millis[j] += Milli(s.Cycles)
		out[j].Retired += s.Retired
	}
	for j := range out {
		out[j].Cycles = float64(millis[j]) / 1000
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		if out[i].Fn != out[j].Fn {
			return out[i].Fn < out[j].Fn
		}
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// ByFunction aggregates attributed cycles per function.
func ByFunction(p *Profile) map[string]float64 {
	millis := make(map[string]int64)
	for i := range p.Samples {
		millis[p.Samples[i].Fn] += Milli(p.Samples[i].Cycles)
	}
	out := make(map[string]float64, len(millis))
	for fn, m := range millis {
		out[fn] = float64(m) / 1000
	}
	return out
}

func pct(part, whole float64) string {
	if whole == 0 {
		return "0.00%"
	}
	return fmt.Sprintf("%.2f%%", 100*part/whole)
}
