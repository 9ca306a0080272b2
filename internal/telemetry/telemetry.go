// Package telemetry is the observability substrate for the OOElala
// pipeline: a metrics registry (counters, gauges, duration histograms),
// phase spans (the -time-passes analog), and a structured
// optimization-remark stream (the -Rpass analog) that carries unseq-aa
// attribution so the paper's causal chain — extra NoAlias answers →
// extra transforms → speedup — is observable per transform.
//
// The zero value of the system is "off": a nil *Session is a valid
// no-op sink, and every method on it is allocation-free, so the
// compiler hot path can be instrumented unconditionally.
package telemetry

import (
	"sync"
	"time"
)

// Config selects which telemetry streams a Session collects. Each
// stream is independent so the CLIs can map -stats, -time-passes and
// -remarks onto exactly one of them.
type Config struct {
	// Metrics enables the counter/gauge registry (-stats).
	Metrics bool
	// Timing enables phase/pass spans (-time-passes).
	Timing bool
	// Remarks enables the optimization-remark stream (-remarks).
	Remarks bool
	// Trace enables hierarchical trace events: every span additionally
	// records a Chrome trace_event "complete" entry with begin timestamp
	// and duration on the session's lane (-trace).
	Trace bool
	// Audit enables the alias-query audit log: a bounded ring buffer of
	// AliasQuery records the aa.Manager fills per chain query (-aa-audit).
	Audit bool
	// AuditCap bounds the audit ring buffer (0 = DefaultAuditCap).
	// Overflow drops the oldest entries; the total asked is still counted.
	AuditCap int
	// Flight forces a live session even when no other stream is on, for
	// callers that only want the always-on flight recorder (every live
	// session carries one regardless of this field; see FlightRecorder).
	Flight bool
	// FlightCap bounds each lane's flight ring (0 = DefaultFlightCap).
	FlightCap int
}

// DefaultAuditCap is the audit ring capacity when Config.AuditCap is 0.
const DefaultAuditCap = 8192

// Enabled reports whether any stream is on.
func (c Config) Enabled() bool {
	return c.Metrics || c.Timing || c.Remarks || c.Trace || c.Audit || c.Flight
}

// Remark is one structured optimization remark: a single transform a
// pass performed, with enough context to attribute it. When the
// transform was only legal because unseq-aa answered NoAlias on a
// query every other analysis left as MayAlias, EnabledByUnseqAA is set
// and PredicateMeta carries the provenance id of the π predicate
// (the mustnotalias intrinsic's Meta) that supplied the fact.
type Remark struct {
	Pass             string `json:"pass"`
	Function         string `json:"function"`
	Loc              string `json:"loc,omitempty"` // block or loop header
	Kind             string `json:"kind"`
	EnabledByUnseqAA bool   `json:"enabledByUnseqAA"`
	PredicateMeta    int    `json:"predicateMeta"`
}

// Duration histogram buckets (upper bounds); the last bucket is +Inf.
var bucketBounds = [...]time.Duration{
	10 * time.Microsecond,
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
}

// NumBuckets is the histogram bucket count (bounds + overflow).
const NumBuckets = len(bucketBounds) + 1

func bucketFor(d time.Duration) int {
	for i, b := range bucketBounds {
		if d <= b {
			return i
		}
	}
	return NumBuckets - 1
}

// durStat accumulates one span name's timing.
type durStat struct {
	count   int64
	total   time.Duration
	max     time.Duration
	buckets [NumBuckets]int64
}

// Session is a telemetry sink. A nil session is the no-op default; all
// methods are safe (and allocation-free) on nil.
type Session struct {
	cfg Config

	// traceRef is the time-zero every trace event timestamp is relative
	// to; forks inherit it from the root so lanes share one timeline.
	traceRef time.Time
	// lane is the Chrome trace tid events on this session carry: 0 is
	// the root (main) lane, forked workers get 1..jobs (ForkLane).
	lane int

	mu           sync.Mutex
	counters     map[string]int64
	counterOrder []string
	gauges       map[string]float64
	gaugeOrder   []string
	durs         map[string]*durStat
	durOrder     []string
	remarks      []Remark
	events       []TraceEvent

	// Alias-query audit ring buffer: when full, the oldest entry is
	// overwritten (auditHead marks it) and auditTotal keeps the true
	// number of queries recorded.
	audit      []AliasQuery
	auditHead  int
	auditTotal int64

	// flight is the always-on crash flight recorder, shared (same
	// pointer) by every fork so worker events land live. See flight.go.
	flight *FlightRecorder
}

// New builds a session collecting the configured streams. If nothing
// is enabled it returns nil — the canonical no-op sink.
func New(cfg Config) *Session {
	if !cfg.Enabled() {
		return nil
	}
	if cfg.Audit && cfg.AuditCap <= 0 {
		cfg.AuditCap = DefaultAuditCap
	}
	s := newSession(cfg)
	s.flight = newFlightRecorder(cfg.FlightCap)
	if cfg.Trace {
		s.traceRef = time.Now()
	}
	return s
}

// newSession builds the bare per-fork collection state. Forks go
// through here rather than New so they never allocate a second flight
// recorder — they share the root's.
func newSession(cfg Config) *Session {
	return &Session{
		cfg:      cfg,
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		durs:     make(map[string]*durStat),
	}
}

// noopStop is the pre-allocated stop function returned by disabled
// spans, keeping Span allocation-free on the no-op path.
var noopStop = func() {}

// MetricsEnabled reports whether the counter registry is collecting.
func (s *Session) MetricsEnabled() bool { return s != nil && s.cfg.Metrics }

// TimingEnabled reports whether spans are collecting.
func (s *Session) TimingEnabled() bool { return s != nil && s.cfg.Timing }

// RemarksEnabled reports whether the remark stream is collecting.
func (s *Session) RemarksEnabled() bool { return s != nil && s.cfg.Remarks }

// TraceEnabled reports whether the trace-event stream is collecting.
func (s *Session) TraceEnabled() bool { return s != nil && s.cfg.Trace }

// Count adds delta to the named counter.
func (s *Session) Count(name string, delta int64) {
	if s == nil || !s.cfg.Metrics {
		return
	}
	s.mu.Lock()
	if _, ok := s.counters[name]; !ok {
		s.counterOrder = append(s.counterOrder, name)
	}
	s.counters[name] += delta
	s.mu.Unlock()
}

// SetGauge sets the named gauge.
func (s *Session) SetGauge(name string, v float64) {
	if s == nil || !s.cfg.Metrics {
		return
	}
	s.mu.Lock()
	if _, ok := s.gauges[name]; !ok {
		s.gaugeOrder = append(s.gaugeOrder, name)
	}
	s.gauges[name] = v
	s.mu.Unlock()
}

// AddGauge accumulates into the named gauge (e.g. simulated cycles
// across multiple runs).
func (s *Session) AddGauge(name string, v float64) {
	if s == nil || !s.cfg.Metrics {
		return
	}
	s.mu.Lock()
	if _, ok := s.gauges[name]; !ok {
		s.gaugeOrder = append(s.gaugeOrder, name)
	}
	s.gauges[name] += v
	s.mu.Unlock()
}

// Span starts a timed phase and returns its stop function. Durations
// for the same name accumulate (count/total/max + histogram), so
// repeated pass invocations fold into one line of -time-passes output.
// With tracing enabled the stop additionally records a trace event, so
// nested Span calls on one goroutine render as a flame in Perfetto.
func (s *Session) Span(name string) func() {
	if s == nil {
		return noopStop
	}
	// Top-level phases feed the flight recorder regardless of which
	// streams are on — they are the coarse "where were we" markers a
	// crash dump needs. Pass-level events are recorded (with function
	// attribution) by PassInstrumentation, not here.
	if len(name) > 6 && name[:6] == "phase/" {
		s.flight.Record(s.lane, "phase", name, "")
	}
	if !s.cfg.Timing && !s.cfg.Trace {
		return noopStop
	}
	start := time.Now()
	return func() {
		d := time.Since(start)
		s.mu.Lock()
		if s.cfg.Timing {
			st := s.durs[name]
			if st == nil {
				st = &durStat{}
				s.durs[name] = st
				s.durOrder = append(s.durOrder, name)
			}
			st.count++
			st.total += d
			if d > st.max {
				st.max = d
			}
			st.buckets[bucketFor(d)]++
		}
		if s.cfg.Trace {
			s.events = append(s.events, s.traceEvent(name, start, d))
		}
		s.mu.Unlock()
	}
}

// TraceSpan is Span restricted to the trace stream: it never creates a
// -time-passes duration accumulator, so high-cardinality hierarchy-only
// spans (one per function under -j) can be traced without polluting the
// aggregate phase report.
func (s *Session) TraceSpan(name string) func() {
	if s == nil || !s.cfg.Trace {
		return noopStop
	}
	start := time.Now()
	return func() {
		d := time.Since(start)
		s.mu.Lock()
		s.events = append(s.events, s.traceEvent(name, start, d))
		s.mu.Unlock()
	}
}

// RecordDuration folds an externally-measured duration into the named
// span accumulator.
func (s *Session) RecordDuration(name string, d time.Duration) {
	if s == nil || !s.cfg.Timing {
		return
	}
	s.mu.Lock()
	st := s.durs[name]
	if st == nil {
		st = &durStat{}
		s.durs[name] = st
		s.durOrder = append(s.durOrder, name)
	}
	st.count++
	st.total += d
	if d > st.max {
		st.max = d
	}
	st.buckets[bucketFor(d)]++
	s.mu.Unlock()
}

// Remark appends r to the remark stream.
func (s *Session) Remark(r Remark) {
	if s == nil || !s.cfg.Remarks {
		return
	}
	s.mu.Lock()
	s.remarks = append(s.remarks, r)
	s.mu.Unlock()
}

// Fork returns a fresh session with the same configuration. Workers of
// a parallel phase each collect into their own fork, and the fan-in
// merges the forks back in a deterministic order (Merge), so the
// combined stream is byte-stable regardless of goroutine scheduling.
// Forking a nil session returns nil (the no-op default propagates).
// The fork inherits the parent's trace lane and time reference.
func (s *Session) Fork() *Session {
	if s == nil {
		return nil
	}
	return s.ForkLane(s.lane)
}

// ForkLane is Fork with an explicit trace lane: events the child records
// carry tid = lane, which is how a worker pool's scheduling becomes
// visible as parallel tracks in Perfetto. Lane 0 is the root session's
// (main) lane; worker pools use 1..jobs.
func (s *Session) ForkLane(lane int) *Session {
	if s == nil {
		return nil
	}
	child := newSession(s.cfg)
	child.traceRef = s.traceRef
	child.lane = lane
	child.flight = s.flight
	return child
}

// Merge folds everything child collected into s: counters and gauges
// add, duration accumulators combine (count/total sum, max of max,
// buckets add), and remarks append. Names register in child's
// first-seen order, so merging forks in a fixed order yields a
// deterministic combined registry. Safe when s or child is nil.
func (s *Session) Merge(child *Session) {
	if s == nil || child == nil {
		return
	}
	// Lock ordering: parent before child. Forks are only ever merged
	// into the session they were forked from, so the order is acyclic.
	s.mu.Lock()
	defer s.mu.Unlock()
	child.mu.Lock()
	defer child.mu.Unlock()
	s.mergeMetricsLocked(child)
	s.remarks = append(s.remarks, child.remarks...)
	s.events = append(s.events, child.events...)
	// Replay the child's audit ring through the parent's (preserving its
	// internal order); entries the child already dropped stay counted.
	dropped := child.auditTotal - int64(len(child.audit))
	s.auditTotal += dropped
	for _, q := range child.auditInOrder() {
		s.recordAliasQueryLocked(q)
	}
}

// mergeMetricsLocked merges counters, gauges and duration accumulators
// with both mutexes held.
func (s *Session) mergeMetricsLocked(child *Session) {
	for _, n := range child.counterOrder {
		if _, ok := s.counters[n]; !ok {
			s.counterOrder = append(s.counterOrder, n)
		}
		s.counters[n] += child.counters[n]
	}
	for _, n := range child.gaugeOrder {
		if _, ok := s.gauges[n]; !ok {
			s.gaugeOrder = append(s.gaugeOrder, n)
		}
		s.gauges[n] += child.gauges[n]
	}
	for _, n := range child.durOrder {
		cd := child.durs[n]
		st := s.durs[n]
		if st == nil {
			st = &durStat{}
			s.durs[n] = st
			s.durOrder = append(s.durOrder, n)
		}
		st.count += cd.count
		st.total += cd.total
		if cd.max > st.max {
			st.max = cd.max
		}
		for i := range st.buckets {
			st.buckets[i] += cd.buckets[i]
		}
	}
}

// ---------- snapshots ----------

// Counter is one named counter value in a snapshot.
type Counter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Gauge is one named gauge value in a snapshot.
type Gauge struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// DurationStat is one span accumulator in a snapshot.
type DurationStat struct {
	Name    string            `json:"name"`
	Count   int64             `json:"count"`
	TotalNS int64             `json:"total_ns"`
	MaxNS   int64             `json:"max_ns"`
	Buckets [NumBuckets]int64 `json:"buckets"`
}

// Total returns the accumulated wall time.
func (d DurationStat) Total() time.Duration { return time.Duration(d.TotalNS) }

// Snapshot is a point-in-time copy of everything a session collected,
// in first-seen order (deterministic output). Trace events and the
// alias-query audit log only appear when their streams were enabled.
type Snapshot struct {
	Counters  []Counter      `json:"counters"`
	Gauges    []Gauge        `json:"gauges"`
	Durations []DurationStat `json:"phases"`
	Remarks   []Remark       `json:"remarks"`
	Events    []TraceEvent   `json:"traceEvents,omitempty"`
	// AliasQueries is the audit ring content, oldest first.
	AliasQueries []AliasQuery `json:"aliasQueries,omitempty"`
	// AliasQueriesTotal counts every query recorded, including ones the
	// bounded ring has since dropped.
	AliasQueriesTotal int64 `json:"aliasQueriesTotal,omitempty"`
}

// AliasQueriesDropped returns how many audit entries overflowed the ring.
func (s *Snapshot) AliasQueriesDropped() int64 {
	return s.AliasQueriesTotal - int64(len(s.AliasQueries))
}

// Snapshot copies the session's current state. Safe on nil (returns an
// empty snapshot).
func (s *Session) Snapshot() *Snapshot {
	snap := &Snapshot{}
	if s == nil {
		return snap
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range s.counterOrder {
		snap.Counters = append(snap.Counters, Counter{Name: n, Value: s.counters[n]})
	}
	for _, n := range s.gaugeOrder {
		snap.Gauges = append(snap.Gauges, Gauge{Name: n, Value: s.gauges[n]})
	}
	for _, n := range s.durOrder {
		st := s.durs[n]
		snap.Durations = append(snap.Durations, DurationStat{
			Name: n, Count: st.count, TotalNS: int64(st.total),
			MaxNS: int64(st.max), Buckets: st.buckets,
		})
	}
	snap.Remarks = append(snap.Remarks, s.remarks...)
	snap.Events = append(snap.Events, s.events...)
	snap.AliasQueries = append(snap.AliasQueries, s.auditInOrder()...)
	snap.AliasQueriesTotal = s.auditTotal
	return snap
}

// Diff returns the delta snapshot s − prev: counters, gauges and
// durations subtract by name (entries absent from prev pass through),
// and remarks are the suffix appended since prev was taken. Use it to
// attribute metrics to one stage of a longer run.
func (s *Snapshot) Diff(prev *Snapshot) *Snapshot {
	if prev == nil {
		return s
	}
	out := &Snapshot{}
	pc := map[string]int64{}
	for _, c := range prev.Counters {
		pc[c.Name] = c.Value
	}
	for _, c := range s.Counters {
		if v := c.Value - pc[c.Name]; v != 0 {
			out.Counters = append(out.Counters, Counter{Name: c.Name, Value: v})
		}
	}
	pg := map[string]float64{}
	for _, g := range prev.Gauges {
		pg[g.Name] = g.Value
	}
	for _, g := range s.Gauges {
		if v := g.Value - pg[g.Name]; v != 0 {
			out.Gauges = append(out.Gauges, Gauge{Name: g.Name, Value: v})
		}
	}
	pd := map[string]DurationStat{}
	for _, d := range prev.Durations {
		pd[d.Name] = d
	}
	for _, d := range s.Durations {
		p := pd[d.Name]
		if d.Count == p.Count && d.TotalNS == p.TotalNS {
			continue
		}
		nd := DurationStat{
			Name: d.Name, Count: d.Count - p.Count,
			TotalNS: d.TotalNS - p.TotalNS, MaxNS: d.MaxNS,
		}
		for i := range nd.Buckets {
			nd.Buckets[i] = d.Buckets[i] - p.Buckets[i]
		}
		out.Durations = append(out.Durations, nd)
	}
	if len(s.Remarks) > len(prev.Remarks) {
		out.Remarks = append(out.Remarks, s.Remarks[len(prev.Remarks):]...)
	}
	if len(s.Events) > len(prev.Events) {
		out.Events = append(out.Events, s.Events[len(prev.Events):]...)
	}
	// Audit entries appended since prev (exact while the ring has not
	// wrapped; after a wrap the suffix is best-effort but never invents
	// entries). The total delta is always exact.
	if len(s.AliasQueries) > len(prev.AliasQueries) {
		out.AliasQueries = append(out.AliasQueries, s.AliasQueries[len(prev.AliasQueries):]...)
	}
	out.AliasQueriesTotal = s.AliasQueriesTotal - prev.AliasQueriesTotal
	return out
}
