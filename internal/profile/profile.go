// Package profile turns the run-leg engines' per-pc / per-instruction
// cycle counters into consumable artifacts: pprof protobuf for
// `go tool pprof`, a perf-annotate-style source listing, and folded
// stack lines for flamegraphs. The encoders are hand-rolled (no
// dependencies) and fully deterministic: identical counter state yields
// byte-identical output.
package profile

import (
	"fmt"
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

// TotalCycles sums the attributed cycles over all samples.
func (p *Profile) TotalCycles() float64 {
	t := 0.0
	for i := range p.Samples {
		t += p.Samples[i].Cycles
	}
	return t
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
	agg := make(map[lineKey]*FlatLine)
	var order []lineKey
	for i := range p.Samples {
		s := &p.Samples[i]
		k := lineKey{s.Fn, s.File, s.Line}
		fl := agg[k]
		if fl == nil {
			fl = &FlatLine{Fn: s.Fn, File: s.File, Line: s.Line}
			agg[k] = fl
			order = append(order, k)
		}
		fl.Cycles += s.Cycles
		fl.Retired += s.Retired
	}
	out := make([]FlatLine, 0, len(order))
	for _, k := range order {
		out = append(out, *agg[k])
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
	out := make(map[string]float64)
	for i := range p.Samples {
		out[p.Samples[i].Fn] += p.Samples[i].Cycles
	}
	return out
}

func pct(part, whole float64) string {
	if whole == 0 {
		return "0.00%"
	}
	return fmt.Sprintf("%.2f%%", 100*part/whole)
}
