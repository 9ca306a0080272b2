package main

import (
	"fmt"

	"repro/internal/passes"
	"repro/internal/workload"
)

// The seed picks one of specDraws SPEC-shaped unit draws. The draws are
// chosen by -regen-refs from specCandidates generated ones as those
// whose totals (simulated cycles per leg, IR instructions) lie closest
// to the candidates' medians, so that the seed changes the programs
// without moving the workload's size. refs.json lists the chosen draws
// and stores the csem references of all their units, so any seed finds
// its references without running csem in set-up.
const (
	specCandidates = 64
	specDraws      = 16
)

// defaultSeed is the pinned seed used when -seed is not given.
const defaultSeed = 1

// A leg is one compiler configuration a unit is compiled and run under.
type leg struct {
	name     string
	ooelala  bool
	sanitize bool
}

var (
	legBase     = leg{name: "base-O3"}
	legUnseq    = leg{name: "unseq-O3", ooelala: true}
	legSanitize = leg{name: "sanitize-O0", ooelala: true, sanitize: true}
)

// A unit is one C program of a workload.
type unit struct {
	name string
	src  string
	// opts are the pass options the paper measures the unit with (nil =
	// the driver's -O3 default).
	opts *passes.Options
	// ref is main's csem result as a C int, filled in during set-up.
	ref int32
}

// A task is one (unit, leg) pair: the grain every timing is taken at.
type task struct {
	u *unit
	l leg
}

type workloadDef struct {
	name string
	legs []leg
	// units builds the workload's programs; draw selects the
	// SPEC-shaped unit draw (ignored by workloads without spec units).
	units func(draw int) []*unit
}

var workloads = []workloadDef{
	{
		name:  "kernels",
		legs:  []leg{legBase, legUnseq},
		units: func(int) []*unit { return kernelUnits() },
	},
	{
		name:  "spec-o3",
		legs:  []leg{legBase, legUnseq},
		units: specUnits,
	},
	{
		name:  "sanitize",
		legs:  []leg{legSanitize},
		units: sanitizeUnits,
	},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want kernels, spec-o3 or sanitize)", name)
}

// drawOf maps a seed onto one of the stored SPEC-shaped draws.
func drawOf(draws []int, seed int64) int {
	return draws[uint64(seed)%uint64(len(draws))]
}

func fromProgram(p workload.Program, opts *passes.Options) *unit {
	return &unit{name: p.Name, src: p.Source, opts: opts}
}

// kernelUnits is the 20-program kernel set: the six Table 4 Polybench
// kernels plus mvt and syrk, the nine Fig. 2 case studies with their
// measurement options, and the three interprocedural kernels with
// inlining off.
func kernelUnits() []*unit {
	var us []*unit
	for _, p := range workload.PolybenchKernels() {
		us = append(us, fromProgram(p, nil))
	}
	for _, p := range workload.ExtraPolybenchKernels() {
		us = append(us, fromProgram(p, nil))
	}
	for _, cs := range workload.Fig2CaseStudies() {
		us = append(us, fromProgram(cs.Program, cs.MeasureOpts()))
	}
	noInline := passes.DefaultOptions()
	noInline.InlineThreshold = 0
	for _, p := range workload.InterprocKernels() {
		us = append(us, fromProgram(p, &noInline))
	}
	return us
}

// specUnits draws the SPEC-shaped corpus: every benchmark of
// workload.SpecSuite with its name suffixed by the draw number, which
// reseeds the generator.
func specUnits(draw int) []*unit {
	var us []*unit
	for _, b := range workload.SpecSuite() {
		b.Name = fmt.Sprintf("%s.v%d", b.Name, draw)
		for _, p := range workload.GenerateUnits(b) {
			us = append(us, fromProgram(p, nil))
		}
	}
	return us
}

// sanitizeUnits is the program set of ooebench -ubsan with the
// SPEC-shaped units selected by draw.
func sanitizeUnits(draw int) []*unit {
	ps := []workload.Program{workload.IntroMinmax(64), workload.IntroImagick(3)}
	ps = append(ps, workload.PolybenchKernels()...)
	ps = append(ps, workload.ExtraPolybenchKernels()...)
	ps = append(ps, workload.RestrictScale(), workload.AnnotatedScale(), workload.PartialOverlapKernel())
	for _, cs := range workload.Fig2CaseStudies() {
		ps = append(ps, cs.Program)
	}
	var us []*unit
	for _, p := range ps {
		us = append(us, fromProgram(p, nil))
	}
	return append(us, specUnits(draw)...)
}

// tasks lists every (unit, leg) pair of a workload in declaration order.
func tasks(us []*unit, legs []leg) []task {
	var ts []task
	for _, u := range us {
		for _, l := range legs {
			ts = append(ts, task{u: u, l: l})
		}
	}
	return ts
}
