package telemetry

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestConcurrentSessionAccess hammers one session from many goroutines
// — the access pattern the parallel middle-end produces. Run under
// `go test -race` this is the data-race gate; the totals check catches
// lost updates either way.
func TestConcurrentSessionAccess(t *testing.T) {
	s := New(Config{Metrics: true, Timing: true, Remarks: true})
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.Count("shared", 1)
				s.Count(fmt.Sprintf("worker/%d", w), 1)
				s.AddGauge("g", 0.5)
				stop := s.Span("span")
				stop()
				s.RecordDuration("ext", time.Microsecond)
				s.Remark(Remark{Pass: "p", Function: "f", Kind: "K"})
			}
		}(w)
	}
	wg.Wait()
	snap := s.Snapshot()
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters["shared"] != workers*perWorker {
		t.Errorf("shared counter = %d, want %d", counters["shared"], workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		if n := counters[fmt.Sprintf("worker/%d", w)]; n != perWorker {
			t.Errorf("worker/%d = %d, want %d", w, n, perWorker)
		}
	}
	if len(snap.Remarks) != workers*perWorker {
		t.Errorf("remarks = %d, want %d", len(snap.Remarks), workers*perWorker)
	}
	var spanCount int64
	for _, d := range snap.Durations {
		if d.Name == "span" {
			spanCount = d.Count
		}
	}
	if spanCount != workers*perWorker {
		t.Errorf("span count = %d, want %d", spanCount, workers*perWorker)
	}
}

// TestForkMergeDeterministicOrder checks the fan-out/fan-in contract:
// children recorded concurrently, merged in a fixed order, produce a
// snapshot identical to a sequential recording of the same stream.
func TestForkMergeDeterministicOrder(t *testing.T) {
	record := func(s *Session, i int) {
		s.Count(fmt.Sprintf("fn/%d", i), int64(i))
		s.Count("total", 1)
		s.SetGauge(fmt.Sprintf("g/%d", i), float64(i))
		s.RecordDuration("phase/opt", time.Duration(i+1)*time.Millisecond)
		s.Remark(Remark{Pass: "licm", Function: fmt.Sprintf("f%d", i), Kind: "Hoisted"})
	}

	want := New(Config{Metrics: true, Timing: true, Remarks: true})
	for i := 0; i < 6; i++ {
		record(want, i)
	}

	got := New(Config{Metrics: true, Timing: true, Remarks: true})
	children := make([]*Session, 6)
	var wg sync.WaitGroup
	// Reverse spawn order: interleaving must not matter, only merge order.
	for i := 5; i >= 0; i-- {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			children[i] = got.Fork()
			record(children[i], i)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 6; i++ {
		got.Merge(children[i])
	}

	if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
		t.Errorf("merged snapshot differs from sequential recording:\ngot  %+v\nwant %+v",
			got.Snapshot(), want.Snapshot())
	}
}

// TestForkMergeNilSafety: forking a nil session yields nil, and merging
// nil children is a no-op — the disabled-telemetry fast path.
func TestForkMergeNilSafety(t *testing.T) {
	var s *Session
	if s.Fork() != nil {
		t.Error("nil session forked a live child")
	}
	s.Merge(nil) // must not panic
	live := New(Config{Metrics: true})
	live.Merge(nil) // must not panic
	live.Merge(live.Fork())
	if n := len(live.Snapshot().Counters); n != 0 {
		t.Errorf("empty merges produced %d counters", n)
	}
}
