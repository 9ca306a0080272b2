package telemetry

import (
	"fmt"
	"sync"
	"testing"
)

func TestFlightRingBoundsAndOrder(t *testing.T) {
	s := New(Config{Flight: true, FlightCap: 8})
	if s == nil {
		t.Fatal("Config.Flight alone must force a live session")
	}
	for i := 0; i < 20; i++ {
		s.FlightRecord("pass", fmt.Sprintf("p%d", i), "f")
	}
	evs := s.Flight().LaneEvents(0)
	if len(evs) != 8 {
		t.Fatalf("ring holds %d events, want cap 8", len(evs))
	}
	// Oldest-first: the ring kept the last 8 of 20 records.
	for i, ev := range evs {
		if want := fmt.Sprintf("p%d", 12+i); ev.Name != want {
			t.Fatalf("event %d = %q, want %q (ring not oldest-first)", i, ev.Name, want)
		}
		if i > 0 && evs[i-1].Seq >= ev.Seq {
			t.Fatalf("sequence numbers not increasing: %d then %d", evs[i-1].Seq, ev.Seq)
		}
	}
	if got := s.Flight().Total(); got != 20 {
		t.Fatalf("Total() = %d, want 20 (dropped events must still be counted)", got)
	}
}

func TestFlightEventsMergeLanesBySeq(t *testing.T) {
	s := New(Config{Flight: true})
	r := s.Flight()
	for i := 0; i < 12; i++ {
		r.Record(i%4, "pass", fmt.Sprintf("p%d", i), "")
	}
	evs := r.Events()
	if len(evs) != 12 {
		t.Fatalf("merged %d events, want 12", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i-1].Seq >= evs[i].Seq {
			t.Fatalf("merged events not ordered by Seq at %d: %+v", i, evs[i-1:i+1])
		}
	}
	// Seq reconstructs the global record order across lanes.
	for i, ev := range evs {
		if want := fmt.Sprintf("p%d", i); ev.Name != want {
			t.Fatalf("merged event %d = %q, want %q", i, ev.Name, want)
		}
	}
}

func TestFlightLaneFolding(t *testing.T) {
	s := New(Config{Flight: true})
	r := s.Flight()
	r.Record(MaxFlightLanes+5, "pass", "folded", "")
	if evs := r.LaneEvents(5); len(evs) != 1 || evs[0].Name != "folded" {
		t.Fatalf("lane %d did not fold onto lane 5: %+v", MaxFlightLanes+5, evs)
	}
}

func TestFlightActive(t *testing.T) {
	s := New(Config{Flight: true})
	s.SetActivePass("licm", "kernel")
	if p, f := s.Flight().Active(0); p != "licm" || f != "kernel" {
		t.Fatalf("Active = (%q, %q), want (licm, kernel)", p, f)
	}
	s.SetActivePass("", "")
	if p, f := s.Flight().Active(0); p != "" || f != "" {
		t.Fatalf("Active after clear = (%q, %q), want idle", p, f)
	}
}

// ForkLane must hand every worker the same recorder: crash dumps need
// the live cross-lane recording, not a per-fork copy waiting on merge.
func TestForkSharesFlightRecorder(t *testing.T) {
	s := New(Config{Flight: true})
	child := s.ForkLane(3)
	if child.Flight() != s.Flight() {
		t.Fatal("ForkLane allocated a new flight recorder")
	}
	child.FlightRecord("pass", "dse", "g")
	evs := s.Flight().LaneEvents(3)
	if len(evs) != 1 || evs[0].Lane != 3 || evs[0].Name != "dse" {
		t.Fatalf("child record not visible on parent recorder lane 3: %+v", evs)
	}
}

// Concurrency: hammer every surface from racing goroutines; the race
// detector is the assertion (run under -race in CI).
func TestFlightConcurrentRecording(t *testing.T) {
	s := New(Config{Flight: true, FlightCap: 16})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			c := s.ForkLane(lane)
			for i := 0; i < 200; i++ {
				c.FlightRecord("pass", "p", "f")
				c.SetActivePass("p", "f")
			}
			c.SetActivePass("", "")
		}(w + 1)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			s.Flight().Events()
			s.Flight().Total()
		}
	}()
	wg.Wait()
	<-done
	if got := s.Flight().Total(); got != 8*200 {
		t.Fatalf("Total() = %d, want %d", got, 8*200)
	}
	for lane := 1; lane <= 8; lane++ {
		if evs := s.Flight().LaneEvents(lane); len(evs) != 16 {
			t.Fatalf("lane %d ring holds %d, want cap 16", lane, len(evs))
		}
	}
}

// The idle-path acceptance gate: recording on a nil session — the
// compiler's default — must not allocate.
func TestFlightNilNoAllocs(t *testing.T) {
	var s *Session
	allocs := testing.AllocsPerRun(1000, func() {
		s.FlightRecord("pass", "licm", "f")
		s.SetActivePass("licm", "f")
		s.SetActivePass("", "")
	})
	if allocs != 0 {
		t.Fatalf("nil-session flight recording allocated %.1f times per op, want 0", allocs)
	}
}

// And the warm live path: after the lane ring's one-time allocation,
// steady-state recording is allocation-free too.
func TestFlightRecordNoAllocsWarm(t *testing.T) {
	s := New(Config{Flight: true})
	s.FlightRecord("pass", "warmup", "f") // allocate the lane ring
	allocs := testing.AllocsPerRun(1000, func() {
		s.FlightRecord("pass", "licm", "f")
		s.SetActivePass("licm", "f")
	})
	if allocs != 0 {
		t.Fatalf("warm flight recording allocated %.1f times per op, want 0", allocs)
	}
}
