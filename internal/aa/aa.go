// Package aa is the alias-analysis subsystem: a chain of analyses queried
// in series, stopping at the first that returns NoAlias — mirroring
// LLVM's AAResults aggregation the paper plugs unseq-aa into. It also
// keeps the aa-eval style counters reported in Table 5 (additional
// must-not-alias responses, etc.).
package aa

import (
	"repro/internal/ir"
	"repro/internal/telemetry"
)

// Result is an alias query response.
type Result int

// Alias query responses, from weakest to strongest.
const (
	MayAlias Result = iota
	PartialAlias
	MustAlias
	NoAlias
)

func (r Result) String() string {
	return [...]string{"MayAlias", "PartialAlias", "MustAlias", "NoAlias"}[r]
}

// Location is a memory location: a pointer value, an access size, and
// (when known) the scalar class of the access — the effective type TBAA
// reasons about.
type Location struct {
	Ptr  ir.Value
	Size int
	Cls  ir.Class // ir.Void when unknown
}

// Analysis is one alias analysis algorithm.
type Analysis interface {
	Name() string
	Alias(a, b Location) Result
}

// Stats counts query outcomes, overall and attributed to unseq-aa.
type Stats struct {
	Queries int
	// Outcomes of the full chain.
	NoAlias, MayAlias, MustAlias, PartialAlias int
	// UnseqNoAlias counts queries where unseq-aa answered NoAlias while
	// every other analysis in the chain said MayAlias — the paper's
	// "additional must-not-alias responses".
	UnseqNoAlias int
	// SummaryNoAlias counts NoAlias answers to queries issued inside a
	// CallModRef resolution — the interprocedural-summary sub-queries
	// that let a transform cross a call site. A subset of NoAlias.
	SummaryNoAlias int
}

// Add accumulates other into s (the scheduler's ordered fan-in and the
// driver both merge per-function stats through it).
func (s *Stats) Add(other Stats) {
	s.Queries += other.Queries
	s.NoAlias += other.NoAlias
	s.MayAlias += other.MayAlias
	s.MustAlias += other.MustAlias
	s.PartialAlias += other.PartialAlias
	s.UnseqNoAlias += other.UnseqNoAlias
	s.SummaryNoAlias += other.SummaryNoAlias
}

// Attribution describes how a query (or a window of queries) was
// decided: whether unseq-aa supplied the deciding NoAlias answer, and
// if so the provenance id (mustnotalias intrinsic Meta) of the π
// predicate that registered the fact. It is the payload optimization
// remarks carry so a transform can be traced back to the predicate
// that enabled it.
type Attribution struct {
	// UnseqDecided is set when unseq-aa answered NoAlias while every
	// other analysis in the chain said MayAlias.
	UnseqDecided bool
	// PredicateMeta is the enabling predicate's provenance id.
	PredicateMeta int
}

// Manager chains analyses.
type Manager struct {
	analyses []Analysis
	unseq    *UnseqAA // may be nil
	Stats    Stats

	// fn is the function whose accesses the chain reasons about;
	// summaries is the module's interprocedural table (nil = every call
	// is a clobber-everything barrier). inSummary flags queries issued
	// from inside CallModRef for the SummaryNoAlias stat and the audit
	// log's viaSummary attribute.
	fn        *ir.Func
	summaries *Summaries
	inSummary bool

	// last describes the most recent query; window accumulates since
	// ResetWindow — passes bracket a transform candidate's legality
	// queries with ResetWindow/Window to attribute the transform.
	last   Attribution
	window Attribution

	// Audit state (nil/zero unless AttachAudit armed it): the session
	// receiving query records, the module for provenance resolution, the
	// function being optimized, and the currently-asking pass.
	tel   *telemetry.Session
	mod   *ir.Module
	fname string
	pass  string
}

// NewManager builds the default chain: basic-aa, tbaa, and (optionally)
// unseq-aa.
func NewManager(fn *ir.Func, unseq bool) *Manager {
	m := &Manager{fn: fn}
	m.analyses = append(m.analyses, NewBasicAA(fn))
	m.analyses = append(m.analyses, NewRestrictAA(fn))
	m.analyses = append(m.analyses, NewTBAA())
	if unseq {
		m.unseq = NewUnseqAA(fn)
		m.analyses = append(m.analyses, m.unseq)
	}
	return m
}

// Refresh rebuilds analysis caches after a transform invalidates them
// (e.g. unrolling cloned intrinsics, new allocas).
func (m *Manager) Refresh(fn *ir.Func) {
	m.fn = fn
	m.analyses[0] = NewBasicAA(fn)
	m.analyses[1] = NewRestrictAA(fn)
	if m.unseq != nil {
		m.unseq.Rebuild(fn)
		m.unseq.Propagate(fn, m.summaries)
	}
}

// SetSummaries attaches the module's interprocedural summary table:
// CallModRef starts answering from it, and callee-exported π facts are
// registered on the call arguments in unseq-aa (π-set propagation
// through arguments).
func (m *Manager) SetSummaries(s *Summaries) {
	m.summaries = s
	if m.unseq != nil {
		m.unseq.Propagate(m.fn, s)
	}
}

// HasSummaries reports whether an interprocedural table is attached.
func (m *Manager) HasSummaries() bool { return m.summaries != nil }

// Summaries returns the attached table (nil when interprocedural
// analysis is off).
func (m *Manager) Summaries() *Summaries { return m.summaries }

// CallReadNone reports whether the callee's summary proves the call
// touches no caller-visible memory at all — no queries needed.
func (m *Manager) CallReadNone(call *ir.Instr) bool {
	fs := m.summaries.ForCall(call)
	return fs != nil && fs.Empty()
}

// CallModRef resolves a call instruction's effect on loc through the
// callee's summary: the Unknown bucket applies unconditionally, global
// effects apply unless the chain proves loc NoAlias with the global,
// and per-parameter effects apply unless the chain proves loc NoAlias
// with the actual argument (value-exact for direct accesses — where a
// caller π pair over the argument answers — and WholeObject for wide
// ones). Without a summary (indirect call, unknown external, no table
// attached) the answer is the legacy barrier, ModRefEffect.
//
// Sub-queries run through the ordinary chain in deterministic order,
// so stats, audit records, and the attribution window accumulate
// exactly as direct queries do; afterwards Last() carries the first
// unseq-decided sub-query's attribution (the π pair that crossed the
// call), or a zero Attribution if none did.
func (m *Manager) CallModRef(call *ir.Instr, loc Location) Effect {
	if call == nil || call.Op != ir.OpCall || m.summaries == nil {
		return ModRefEffect
	}
	fs := m.summaries.ForCall(call)
	if fs == nil {
		m.last = Attribution{}
		return ModRefEffect
	}
	if loc.Ptr == nil {
		m.last = Attribution{}
		if fs.Empty() {
			return 0
		}
		return ModRefEffect
	}
	m.inSummary = true
	var att Attribution
	eff := fs.Unknown
	for _, ge := range fs.Globals {
		if eff == ModRefEffect {
			break
		}
		if ge.Eff&^eff == 0 {
			continue
		}
		gsize := ge.Global.Size
		if gsize <= 0 {
			gsize = 8
		}
		if m.Alias(loc, Location{Ptr: ge.Global, Size: gsize}) != NoAlias {
			eff |= ge.Eff
		} else if m.last.UnseqDecided && !att.UnseqDecided {
			att = m.last
		}
	}
	for i, pe := range fs.Params {
		if eff == ModRefEffect {
			break
		}
		if pe.Eff == 0 || pe.Eff&^eff == 0 {
			continue
		}
		if i >= len(call.Args) {
			eff |= pe.Eff
			continue
		}
		q := Location{Ptr: call.Args[i], Size: WholeObject}
		if !pe.Wide {
			q.Size, q.Cls = pe.DirectSize, pe.DirectCls
		}
		if m.Alias(loc, q) != NoAlias {
			eff |= pe.Eff
		} else if m.last.UnseqDecided && !att.UnseqDecided {
			att = m.last
		}
	}
	m.inSummary = false
	m.last = att
	return eff
}

// Unseq exposes the unseq-aa instance (nil when disabled).
func (m *Manager) Unseq() *UnseqAA { return m.unseq }

// ResetWindow clears the attribution accumulator. Passes call it
// before a transform candidate's legality queries.
func (m *Manager) ResetWindow() { m.window = Attribution{} }

// Window returns the attribution accumulated since ResetWindow: set if
// any query in the window was decided by unseq-aa (the first deciding
// predicate's meta is kept).
func (m *Manager) Window() Attribution { return m.window }

// Last returns the attribution of the most recent Alias query.
func (m *Manager) Last() Attribution { return m.last }

// UnseqDecides reports whether unseq-aa alone answers NoAlias for
// (a, b), merging the attribution into the current window. Passes use
// it to test whether an already-proven fact came from the paper's
// analysis (the vectorizer's cost-model question).
func (m *Manager) UnseqDecides(a, b Location) bool {
	if m.unseq == nil {
		return false
	}
	r := m.unseq.Alias(a, b)
	if m.tel != nil {
		m.unseqDecidesAudited(a, b, r)
	}
	if r != NoAlias {
		return false
	}
	if !m.window.UnseqDecided {
		m.window = Attribution{UnseqDecided: true, PredicateMeta: m.unseq.LastMeta()}
	}
	return true
}

// Alias runs the chain on (a, b): the first NoAlias wins. With the
// audit log armed (AttachAudit), the providers past the deciding answer
// are still queried for the log; they change neither the answer nor the
// stats and attribution.
func (m *Manager) Alias(a, b Location) Result {
	m.Stats.Queries++
	m.last = Attribution{}
	audit := m.tel != nil
	var chain []telemetry.ProviderVerdict
	if audit {
		chain = make([]telemetry.ProviderVerdict, 0, len(m.analyses))
	}
	var decider Analysis
	meta := 0
	best := MayAlias
	othersBest := MayAlias
	for _, an := range m.analyses {
		r := an.Alias(a, b)
		if audit {
			chain = append(chain, telemetry.ProviderVerdict{Provider: an.Name(), Verdict: r.String()})
			if decider != nil {
				continue
			}
		}
		if r == NoAlias {
			isUnseq := an == Analysis(m.unseq)
			if isUnseq {
				meta = m.unseq.LastMeta()
				if othersBest == MayAlias {
					m.Stats.UnseqNoAlias++
					m.last = Attribution{UnseqDecided: true, PredicateMeta: meta}
					if !m.window.UnseqDecided {
						m.window = m.last
					}
				}
			}
			m.Stats.NoAlias++
			if m.inSummary {
				m.Stats.SummaryNoAlias++
			}
			if !audit {
				return NoAlias
			}
			best, decider = NoAlias, an
			continue
		}
		if r > best {
			best = r
		}
		if m.unseq == nil || an != Analysis(m.unseq) {
			if r > othersBest {
				othersBest = r
			}
		}
	}
	switch best {
	case NoAlias: // counted at the decision
	case MustAlias:
		m.Stats.MustAlias++
	case PartialAlias:
		m.Stats.PartialAlias++
	default:
		m.Stats.MayAlias++
	}
	if audit {
		m.recordQuery(a, b, chain, decider, meta, best)
	}
	return best
}

// AliasPtrs is a convenience for same-size scalar queries.
func (m *Manager) AliasPtrs(a, b ir.Value, size int) Result {
	return m.Alias(Location{Ptr: a, Size: size}, Location{Ptr: b, Size: size})
}
