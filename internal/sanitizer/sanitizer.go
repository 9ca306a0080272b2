// Package sanitizer is the paper's UBSan derivation (§4.1): the
// must-not-alias predicates of the OOE analysis become runtime assertion
// checks on unoptimized IR. Following the paper, only predicates whose
// expressions contain no function calls are instrumented (>98.5% of all
// predicates in the paper's measurements), and predicates whose both
// sides are bitfields are dropped (§4.2.3's widening subtlety).
package sanitizer

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/telemetry"
)

// Failure is one runtime must-not-alias violation. Beyond the assertion
// site (Fn/Addr), it carries the violated π pair's provenance when the
// module recorded it: the predicate id, the two expression spellings,
// and their source ranges.
type Failure struct {
	Fn   string `json:"function"`
	Addr int64  `json:"address"`
	// Meta is the violated predicate's provenance id (matches the
	// "pred #N" numbering of -explain and the audit log; 0 = unknown).
	Meta int `json:"predicateMeta,omitempty"`
	// E1/E2 are the π pair's expression spellings; Range1/Range2 their
	// source ranges.
	E1     string `json:"piE1,omitempty"`
	E2     string `json:"piE2,omitempty"`
	Range1 string `json:"piE1Range,omitempty"`
	Range2 string `json:"piE2Range,omitempty"`
}

func (f Failure) String() string {
	s := fmt.Sprintf("unsequenced race: two accesses to %#x in %s", f.Addr, f.Fn)
	if f.Meta > 0 {
		s += fmt.Sprintf(" (pred #%d {%s, %s} at %s, %s)", f.Meta, f.E1, f.E2, f.Range1, f.Range2)
	}
	return s
}

// Report summarizes one sanitized run.
type Report struct {
	// ChecksInserted counts ubcheck instructions emitted.
	ChecksInserted int `json:"checksInserted"`
	// PredsTotal / PredsWithCalls reproduce the §4.1 statistic that the
	// sanitizer conservatively skips call-containing predicates.
	PredsTotal     int `json:"predsTotal"`
	PredsWithCalls int `json:"predsWithCalls"`
	// BitfieldDropped counts predicates dropped by the §4.2.3 filter.
	BitfieldDropped int `json:"bitfieldDropped"`
	// Failures are the violations observed at runtime (empty = clean).
	Failures []Failure `json:"failures"`
	// Result is the program's exit value.
	Result int64 `json:"result"`
}

// CallFreeFraction returns the fraction of predicates without calls
// (the paper reports > 98.5% across SPEC).
func (r Report) CallFreeFraction() float64 {
	if r.PredsTotal == 0 {
		return 1
	}
	return float64(r.PredsTotal-r.PredsWithCalls) / float64(r.PredsTotal)
}

// Check compiles src with sanitizer instrumentation (unoptimized IR, as
// the paper prescribes), runs entry (default main), and reports any
// must-not-alias violations. transform, if set, rewrites the AST before
// the analysis (the automatic annotator validates its insertions this
// way); tel, if set, receives the compilation's and the run's telemetry.
func Check(name, src string, files map[string]string, entry string,
	transform func(*ast.TranslationUnit), tel *telemetry.Session) (*Report, error) {
	c, err := driver.Compile(name, src, driver.Config{
		OOElala:   true,
		Sanitize:  true,
		Files:     files,
		Transform: transform,
		Telemetry: tel,
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ChecksInserted:  c.UBChecks,
		PredsTotal:      c.Frontend.InitialPreds,
		PredsWithCalls:  c.Frontend.PredsWithCalls,
		BitfieldDropped: c.Frontend.BitfieldDropped,
	}
	r, err := c.Exec(driver.RunOpts{Entry: entry})
	if err != nil {
		return rep, err
	}
	rep.Result = r.Value
	rep.Failures = convertFailures(r.Failures, c.Module)
	return rep, nil
}

func convertFailures(fs []*interp.SanitizerFailure, mod *ir.Module) []Failure {
	out := make([]Failure, 0, len(fs))
	for _, f := range fs {
		fail := Failure{Fn: f.Fn, Addr: f.Addr}
		if p := mod.FindProvenance(f.Meta); p != nil {
			fail.Meta = p.Meta
			fail.E1, fail.E2 = p.E1, p.E2
			fail.Range1, fail.Range2 = p.Span1.String(), p.Span2.String()
		}
		out = append(out, fail)
	}
	return out
}
