package fuzz

import (
	"fmt"
	"strings"

	"repro/internal/csem"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/passes"
	"repro/internal/sema"
)

// Finding kinds reported by the harness.
const (
	// KindDivergence: a compiled pipeline produced a value outside the
	// set the reference semantics allows on a UB-free program.
	KindDivergence = "divergence"
	// KindJobsMismatch: the parallel (-j4) and sequential (-j1) builds
	// of the same pipeline disagree — output must be byte-identical.
	KindJobsMismatch = "jobs-mismatch"
	// KindSanitizerFP: the sanitizer flagged a race on a program the
	// reference semantics proved UB-free on every explored order.
	KindSanitizerFP = "sanitizer-false-positive"
	// KindSanitizerMiss: the sanitizer observed no race on a program the
	// reference semantics proved UB. Misses are expected by design
	// (must-alias pairs are not instrumented; §4.1), so this is a
	// statistic unless HarnessOpts.Strict promotes it to a finding.
	KindSanitizerMiss = "sanitizer-miss"
	// KindCompileError / KindRunError / KindCsemError: an engine failed
	// outright on a generated program that should be in the supported
	// subset.
	KindCompileError = "compile-error"
	KindRunError     = "run-error"
	KindCsemError    = "csem-error"
	// KindEngineMismatch: the bytecode vm and the tree-walking oracle
	// disagreed on result, cycles, error text, or sanitizer verdict for
	// the same compilation — the vm's bit-identical contract is broken.
	KindEngineMismatch = "engine-mismatch"
)

// Finding is one observed deviation.
type Finding struct {
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// LegResult is one compiled pipeline's outcome.
type LegResult struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
	Err   string `json:"err,omitempty"`
}

// Outcome is the full differential verdict for one program.
type Outcome struct {
	Seed       int64       `json:"seed"`
	Racy       bool        `json:"racy"`
	UB         bool        `json:"ub"`
	UBReason   string      `json:"ub_reason,omitempty"`
	RefValues  []int64     `json:"ref_values,omitempty"`
	Orders     int         `json:"orders"`
	Exhaustive bool        `json:"exhaustive"`
	Legs       []LegResult `json:"legs,omitempty"`
	SanCaught  bool        `json:"san_caught"`
	Findings   []Finding   `json:"findings,omitempty"`
}

// HarnessOpts tunes one Check run.
type HarnessOpts struct {
	// Explore bounds the reference-semantics order exploration.
	Explore csem.ExploreOpts
	// Strict promotes sanitizer misses on UB programs to findings.
	Strict bool
	// CrossEngine runs every leg and the sanitizer build on both the
	// bytecode vm and the tree-walking oracle and flags any divergence
	// in result, cycles, error text, or sanitizer verdict.
	CrossEngine bool
	// InlineOff adds the interprocedural cohort: -O3 legs with inlining
	// defeated, so every helper call survives into the mid-end and the
	// summary tier (not the inliner) is what must keep the pipelines
	// inside the reference set.
	InlineOff bool
}

// legConfig is one compiled pipeline a program is run through.
type legConfig struct {
	name string
	cfg  driver.Config
}

// legConfigs are the standard pipelines every UB-free program is run
// through. Order matters: j1/j4 pairs are compared pairwise.
var legConfigs = []legConfig{
	{"O0", driver.Config{NoOpt: true}},
	{"O3-baseline", driver.Config{}},
	{"O3-unseq-j1", driver.Config{OOElala: true, Jobs: 1}},
	{"O3-unseq-j4", driver.Config{OOElala: true, Jobs: 4}},
}

// jobsPairs are the (sequential, parallel) leg names whose results must
// be identical — the byte-identity contract observed through values.
var jobsPairs = [][2]string{
	{"O3-unseq-j1", "O3-unseq-j4"},
	{"O3-unseq-noinline-j1", "O3-unseq-noinline-j4"},
}

// noInlineOptions defeats the inliner (threshold 0: every callee is
// over budget) while keeping the rest of -O3.
func noInlineOptions() *passes.Options {
	opts := passes.DefaultOptions()
	opts.InlineThreshold = 0
	return &opts
}

// legsFor returns the pipelines for one Check run.
func legsFor(opts HarnessOpts) []legConfig {
	legs := legConfigs
	if opts.InlineOff {
		ni := noInlineOptions()
		legs = append(legs[:len(legs):len(legs)],
			legConfig{"O3-base-noinline", driver.Config{PassOptions: ni}},
			legConfig{"O3-unseq-noinline-j1", driver.Config{OOElala: true, Jobs: 1, PassOptions: ni}},
			legConfig{"O3-unseq-noinline-j4", driver.Config{OOElala: true, Jobs: 4, PassOptions: ni}},
		)
	}
	return legs
}

func (o *Outcome) flag(kind, format string, args ...any) {
	o.Findings = append(o.Findings, Finding{Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// Check runs one program through the reference semantics (under
// explored evaluation orders), every compiled pipeline, and the
// sanitizer build, and reports any deviation.
//
// The comparison is set-membership, not equality: a program whose
// explored orders produce several values (indeterminately sequenced
// calls) is merely unspecified, and each pipeline — which implements
// ONE order — must land inside the set.
func Check(p Program, opts HarnessOpts) *Outcome {
	out := &Outcome{Seed: p.Seed, Racy: p.Racy}

	tu, perrs := parser.ParseFile("fuzz.c", p.Source, nil)
	if len(perrs) > 0 {
		out.flag(KindCompileError, "parse: %v", perrs[0])
		return out
	}
	if serrs := sema.Check(tu); len(serrs) > 0 {
		out.flag(KindCompileError, "sema: %v", serrs[0])
		return out
	}

	ref, err := csem.Explore(tu, "main", opts.Explore)
	if err != nil {
		out.flag(KindCsemError, "%v", err)
		return out
	}
	out.UB, out.UBReason = ref.UB, ref.UBReason
	out.RefValues, out.Orders, out.Exhaustive = ref.Values, ref.Orders, ref.Exhaustive

	if ref.UB {
		// Undefined program: compiled results are unconstrained; the only
		// question is whether the sanitizer observes the race.
		caught, detail := runSanitized(p.Source, opts.CrossEngine, out)
		out.SanCaught = caught
		if !caught && opts.Strict {
			out.flag(KindSanitizerMiss, "UB (%s) not observed by sanitizer%s", ref.UBReason, detail)
		}
		return out
	}

	// UB-free: every pipeline must produce a member of the reference set.
	allowed := map[int64]bool{}
	for _, v := range ref.Values {
		allowed[v] = true
	}
	values := map[string]int64{}
	for _, leg := range legsFor(opts) {
		lr := LegResult{Name: leg.name}
		c, err := driver.Compile("fuzz.c", p.Source, leg.cfg)
		if err != nil {
			lr.Err = err.Error()
			out.Legs = append(out.Legs, lr)
			out.flag(KindCompileError, "%s: %v", leg.name, err)
			continue
		}
		got, _, err := c.Run("")
		if opts.CrossEngine {
			got, err = runCross(c, out, leg.name)
		}
		if err != nil {
			lr.Err = err.Error()
			out.Legs = append(out.Legs, lr)
			out.flag(KindRunError, "%s: %v", leg.name, err)
			continue
		}
		lr.Value = got
		out.Legs = append(out.Legs, lr)
		values[leg.name] = got
		if !allowed[got] {
			// A sampled (non-exhaustive) exploration can miss the order the
			// pipeline happened to implement; widen the search once before
			// calling it a divergence.
			if !ref.Exhaustive {
				wide := opts.Explore
				wide.MaxOrders = 1024
				wide.Samples = 256
				if ref2, err2 := csem.Explore(tu, "main", wide); err2 == nil && !ref2.UB {
					for _, v := range ref2.Values {
						if !allowed[v] {
							allowed[v] = true
							out.RefValues = append(out.RefValues, v)
						}
					}
					out.Orders = ref2.Orders
					out.Exhaustive = ref2.Exhaustive
				}
			}
			if !allowed[got] {
				out.flag(KindDivergence, "%s returned %d, reference allows %s",
					leg.name, got, fmtVals(out.RefValues))
			}
		}
	}
	for _, pair := range jobsPairs {
		if v1, ok1 := values[pair[0]]; ok1 {
			if v4, ok4 := values[pair[1]]; ok4 && v1 != v4 {
				out.flag(KindJobsMismatch, "%s returned %d but %s returned %d",
					pair[0], v1, pair[1], v4)
			}
		}
	}

	// The sanitizer must stay silent on a program proved race-free.
	caught, detail := runSanitized(p.Source, opts.CrossEngine, out)
	out.SanCaught = caught
	if caught {
		out.flag(KindSanitizerFP, "sanitizer flagged a UB-free program%s", detail)
	}
	return out
}

// runCross executes the same compilation on the tree-walking oracle
// and the bytecode vm and flags any break in the bit-identical
// contract: result, simulated cycles, and error text (modulo the
// engine-name prefix) must all agree. Returns the vm-side outcome so
// the caller's leg bookkeeping reflects the default engine.
func runCross(c *driver.Compilation, out *Outcome, leg string) (int64, error) {
	t, tErr := c.Exec(driver.RunOpts{Engine: driver.EngineTree})
	v, vErr := c.Exec(driver.RunOpts{Engine: driver.EngineVM})
	if stripEngine(tErr) != stripEngine(vErr) {
		out.flag(KindEngineMismatch, "%s: error divergence: tree=%v vm=%v", leg, tErr, vErr)
	} else if tErr == nil && (t.Value != v.Value || t.Cycles != v.Cycles) {
		out.flag(KindEngineMismatch, "%s: tree=(%d, %v) vm=(%d, %v)",
			leg, t.Value, t.Cycles, v.Value, v.Cycles)
	}
	return v.Value, vErr
}

// stripEngine normalizes an engine error for cross-engine comparison:
// identical failure, different attribution prefix.
func stripEngine(err error) string {
	if err == nil {
		return ""
	}
	s := strings.TrimPrefix(err.Error(), "interp: ")
	return strings.TrimPrefix(s, "vm: ")
}

// runSanitized builds with UBSan instrumentation and reports whether a
// must-not-alias check fired. With cross set, the sanitized run
// additionally executes on both engines and any difference in the
// failure lists is flagged on out as an engine mismatch.
func runSanitized(src string, cross bool, out *Outcome) (caught bool, detail string) {
	c, err := driver.Compile("fuzz.c", src, driver.Config{OOElala: true, Sanitize: true})
	if err != nil {
		return false, fmt.Sprintf(" (sanitized compile failed: %v)", err)
	}
	r, err := c.Exec(driver.RunOpts{})
	if err != nil {
		return false, fmt.Sprintf(" (sanitized run failed: %v)", err)
	}
	if cross {
		crossCheckSanitized(c, r.Failures, out)
	}
	if len(r.Failures) == 0 {
		return false, ""
	}
	return true, ": " + r.Failures[0].Error()
}

// crossCheckSanitized replays the sanitized program on the oracle
// engine and compares the failure stream against the default engine's.
func crossCheckSanitized(c *driver.Compilation, got []*interp.SanitizerFailure, out *Outcome) {
	r, err := c.Exec(driver.RunOpts{Engine: driver.EngineTree})
	if err != nil {
		out.flag(KindEngineMismatch, "sanitized: tree run failed where default engine succeeded: %v", err)
		return
	}
	want := r.Failures
	if len(want) != len(got) {
		out.flag(KindEngineMismatch, "sanitized: failure count tree=%d vm-default=%d",
			len(want), len(got))
		return
	}
	for i := range want {
		if *want[i] != *got[i] {
			out.flag(KindEngineMismatch, "sanitized: failure %d diverges: tree=%+v vm-default=%+v",
				i, *want[i], *got[i])
			return
		}
	}
}

func fmtVals(vs []int64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprint(v)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
