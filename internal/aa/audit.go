package aa

import (
	"strconv"

	"repro/internal/ir"
	"repro/internal/telemetry"
)

// AttachAudit arms the manager's alias-query audit log: every chain
// query is recorded into tel with the asking pass, function, both
// locations, the full per-provider verdict chain, and — for unseq-aa
// answers — the π predicate's provenance resolved through mod. A no-op
// when the session's audit stream is off, so the fast query path keeps
// its zero-cost shape.
func (m *Manager) AttachAudit(tel *telemetry.Session, mod *ir.Module, fname string) {
	if !tel.AuditEnabled() {
		return
	}
	m.tel = tel
	m.mod = mod
	m.fname = fname
}

// SetPass records which optimization pass is currently issuing queries
// (audit attribution); it returns the previous pass name so callers can
// restore it on exit.
func (m *Manager) SetPass(pass string) string {
	prev := m.pass
	m.pass = pass
	return prev
}

// locString renders a memory location for the audit log.
func locString(l Location) string {
	sz := strconv.Itoa(l.Size) + "B"
	if l.Size == WholeObject {
		sz = "whole-object"
	}
	s := ir.ValueName(l.Ptr) + " [" + sz + "]"
	if l.Cls != ir.Void {
		s += " " + l.Cls.String()
	}
	return s
}

// recordQuery logs one chain query: every provider's verdict, the
// provider that decided it (nil when none answered NoAlias) and, for an
// unseq-aa decision, the deciding π predicate's meta.
func (m *Manager) recordQuery(a, b Location, chain []telemetry.ProviderVerdict, decider Analysis, meta int, r Result) {
	q := telemetry.AliasQuery{
		Pass:          m.pass,
		Function:      m.fname,
		LocA:          locString(a),
		LocB:          locString(b),
		ViaSummary:    m.inSummary,
		Chain:         chain,
		Result:        r.String(),
		PredicateMeta: meta,
		UnseqDecided:  m.last.UnseqDecided,
	}
	if decider != nil {
		q.Decider = decider.Name()
	}
	m.resolveProvenance(&q)
	m.tel.RecordAliasQuery(q)
}

// unseqDecidesAudited records the vectorizer-style direct unseq-aa
// probe as a single-provider chain entry.
func (m *Manager) unseqDecidesAudited(a, b Location, r Result) {
	q := telemetry.AliasQuery{
		Pass:     m.pass,
		Function: m.fname,
		LocA:     locString(a),
		LocB:     locString(b),
		Chain:    []telemetry.ProviderVerdict{{Provider: m.unseq.Name(), Verdict: r.String()}},
		Result:   r.String(),
	}
	if r == NoAlias {
		q.Decider = m.unseq.Name()
		q.UnseqDecided = true
		q.PredicateMeta = m.unseq.LastMeta()
	}
	m.resolveProvenance(&q)
	m.tel.RecordAliasQuery(q)
}

// resolveProvenance fills the π pair's source spellings and ranges from
// the module provenance table.
func (m *Manager) resolveProvenance(q *telemetry.AliasQuery) {
	if q.PredicateMeta <= 0 {
		return
	}
	p := m.mod.FindProvenance(q.PredicateMeta)
	if p == nil {
		return
	}
	q.PiE1, q.PiE2 = p.E1, p.E2
	q.PiE1Range, q.PiE2Range = p.Span1.String(), p.Span2.String()
}
