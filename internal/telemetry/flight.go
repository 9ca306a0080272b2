package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder is the crash-time half of the telemetry layer: a
// bounded ring of recent pass/phase/AA events per worker lane, kept on
// every live Session (it is not behind a stream flag — "always on" for
// any session) so a panic anywhere in the pipeline can be dumped with
// the events that led up to it. Recording is allocation-free after a
// lane's ring is warmed, and a nil session records nothing, so the
// compiler hot path stays on the same zero-overhead contract as the
// other streams.

// DefaultFlightCap is the per-lane ring capacity when Config.FlightCap
// is zero. Crash dumps promise at least 32 trailing events per lane, so
// the default leaves headroom over that floor.
const DefaultFlightCap = 64

// MaxFlightLanes is the number of distinct lanes the recorder tracks.
// Lane 0 is the root (main) lane; worker pools use 1..jobs. A lane
// index beyond the limit folds back onto the tracked set (the recorder
// is diagnostic state, not an exact per-goroutine ledger).
const MaxFlightLanes = 64

// FlightEvent is one entry in a lane's flight ring.
type FlightEvent struct {
	// Seq is a recorder-wide monotone sequence number; merging the lane
	// rings by Seq reconstructs the global event order.
	Seq uint64 `json:"seq"`
	// TUS is microseconds since the recorder started.
	TUS int64 `json:"t_us"`
	// Lane is the worker lane the event was recorded on.
	Lane int `json:"lane"`
	// Kind namespaces the event: "phase", "pass", "aa", "unit", "panic".
	Kind string `json:"kind"`
	// Name is the event payload (pass name, phase name, AA verdict).
	Name string `json:"name"`
	// Func is the function being optimized, when one is in scope.
	Func string `json:"func,omitempty"`
}

// flightLane is one lane's bounded ring plus its crash-attribution
// state.
type flightLane struct {
	mu    sync.Mutex
	ring  []FlightEvent
	head  int
	total uint64
	// activePass/activeFunc mirror what PassInstrumentation is running
	// on this lane right now ("" = idle) — the crash dump's "what was
	// executing" answer even when the panic unwound past the pass.
	activePass string
	activeFunc string
}

// FlightRecorder is the set of per-lane rings. It is shared by every
// fork of a session (ForkLane hands out the same pointer), so worker
// events land in the live recorder immediately instead of waiting for
// the ordered fan-in merge the metric streams use.
type FlightRecorder struct {
	start time.Time
	cap   int
	seq   atomic.Uint64
	lanes [MaxFlightLanes]flightLane
}

func newFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	return &FlightRecorder{start: time.Now(), cap: capacity}
}

func (r *FlightRecorder) laneFor(lane int) *flightLane {
	return &r.lanes[lane&(MaxFlightLanes-1)]
}

// Record appends one event to lane's ring, overwriting the oldest entry
// when full. Allocation-free once the lane's ring has been warmed.
func (r *FlightRecorder) Record(lane int, kind, name, fn string) {
	if r == nil {
		return
	}
	ev := FlightEvent{
		Seq:  r.seq.Add(1),
		TUS:  time.Since(r.start).Microseconds(),
		Lane: lane,
		Kind: kind,
		Name: name,
		Func: fn,
	}
	l := r.laneFor(lane)
	l.mu.Lock()
	l.total++
	if l.ring == nil {
		l.ring = make([]FlightEvent, 0, r.cap)
	}
	if len(l.ring) < r.cap {
		l.ring = append(l.ring, ev)
	} else {
		l.ring[l.head] = ev
		l.head++
		if l.head == len(l.ring) {
			l.head = 0
		}
	}
	l.mu.Unlock()
}

// SetActive marks what lane is executing right now; empty strings mark
// it idle.
func (r *FlightRecorder) SetActive(lane int, pass, fn string) {
	if r == nil {
		return
	}
	l := r.laneFor(lane)
	l.mu.Lock()
	l.activePass, l.activeFunc = pass, fn
	l.mu.Unlock()
}

// Active returns the lane's currently-executing pass and function.
func (r *FlightRecorder) Active(lane int) (pass, fn string) {
	if r == nil {
		return "", ""
	}
	l := r.laneFor(lane)
	l.mu.Lock()
	pass, fn = l.activePass, l.activeFunc
	l.mu.Unlock()
	return pass, fn
}

// LaneEvents copies lane's ring, oldest first.
func (r *FlightRecorder) LaneEvents(lane int) []FlightEvent {
	if r == nil {
		return nil
	}
	l := r.laneFor(lane)
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ring) == 0 {
		return nil
	}
	out := make([]FlightEvent, 0, len(l.ring))
	out = append(out, l.ring[l.head:]...)
	out = append(out, l.ring[:l.head]...)
	return out
}

// Events merges every lane's ring into one slice ordered by sequence
// number — the flight recording a crash dump embeds.
func (r *FlightRecorder) Events() []FlightEvent {
	if r == nil {
		return nil
	}
	var out []FlightEvent
	for i := range r.lanes {
		out = append(out, r.LaneEvents(i)...)
	}
	// Insertion sort by Seq: rings are already internally ordered and
	// the merged set is small (MaxFlightLanes * cap at worst).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Seq > out[j].Seq; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// Total counts every event recorded, including ones the bounded rings
// have since dropped.
func (r *FlightRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for i := range r.lanes {
		l := &r.lanes[i]
		l.mu.Lock()
		n += l.total
		l.mu.Unlock()
	}
	return n
}

// ---------- Session surface ----------

// Flight returns the session's flight recorder (nil on the no-op
// session). Every fork of a session shares one recorder.
func (s *Session) Flight() *FlightRecorder {
	if s == nil {
		return nil
	}
	return s.flight
}

// FlightRecord records one event on the session's lane. Safe (and
// allocation-free) on nil.
func (s *Session) FlightRecord(kind, name, fn string) {
	if s == nil {
		return
	}
	s.flight.Record(s.lane, kind, name, fn)
}

// SetActivePass marks the pass/function the session's lane is executing
// (crash attribution); empty strings mark the lane idle.
func (s *Session) SetActivePass(pass, fn string) {
	if s == nil {
		return
	}
	s.flight.SetActive(s.lane, pass, fn)
}

// Lane returns the session's trace/flight lane.
func (s *Session) Lane() int {
	if s == nil {
		return 0
	}
	return s.lane
}
