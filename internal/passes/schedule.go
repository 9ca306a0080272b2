package passes

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/aa"
	"repro/internal/ir"
	"repro/internal/telemetry"
)

// The middle-end is function-local, so RunModule shards the per-function
// pipeline across a bounded worker pool. The only cross-function reads
// are (a) callee effect summaries — the immutable ReadNone bit, safe on
// the live module — and (b) callee bodies spliced by the inliner. The
// scheduler makes (b) both race-free and deterministic by reproducing
// the sequential pipeline's visibility rule: when function i runs, every
// function j < i it can transitively reach has already finished (a DAG
// dependency), and every reachable j >= i is read from an immutable
// pre-pipeline snapshot — exactly the state the sequential loop would
// have observed. Results (stats, AA counters, telemetry forks) merge in
// original function order, so IR, remarks, and metrics are byte-stable
// regardless of worker count or interleaving.

// funcResult collects one function's pipeline output for ordered fan-in.
type funcResult struct {
	stats Stats
	aa    aa.Stats
	tel   *telemetry.Session
	err   error
}

// runFuncs optimizes every function in mod, fanning out across
// opts.Jobs workers (0 = GOMAXPROCS). Jobs == 1 runs the plain
// sequential loop — the differential-testing oracle the parallel path
// must match byte-for-byte. Failures (verify-each findings and
// recovered pass panics) do not stop the other functions: every
// function runs, and the errors aggregate with errors.Join in source
// order, so -j 1 and -j N report the same failures in the same order.
func runFuncs(mod *ir.Module, opts Options, aaStats *aa.Stats, ma *ModuleAnalyses, sums *aa.Summaries) (Stats, error) {
	var total Stats
	n := len(mod.Funcs)
	if n == 0 {
		return total, nil
	}
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > n {
		jobs = n
	}
	if jobs == 1 || n == 1 {
		errs := make([]error, 0, n)
		for _, f := range mod.Funcs {
			st, err := runFunc(mod, f, opts, aaStats, nil, sums)
			total.Add(st)
			errs = append(errs, err)
		}
		return total, errors.Join(errs...)
	}

	// The shared call graph supplies the reachability relation (it was
	// built from the pre-pipeline bodies in RunModule, before any worker
	// could mutate a function).
	cg := ma.SnapshotCallGraph()
	if cg == nil {
		cg = ma.CallGraph()
	}
	idx := make(map[string]int, n)
	for i, f := range mod.Funcs {
		idx[f.Name] = i
	}
	reach := cg.Reachable()

	// deps[i] = reachable functions with a smaller index: those the
	// sequential pipeline would have finished before starting i, so the
	// inliner must see their final bodies. Larger-index reachable
	// functions are snapshotted pre-pipeline instead.
	depCount := make([]int32, n)
	dependents := make([][]int, n)
	orig := make([]*ir.Func, n)
	for i := 0; i < n; i++ {
		for j := range reach[i] {
			if j < i {
				depCount[i]++
				dependents[j] = append(dependents[j], i)
			} else if j > i && orig[j] == nil {
				orig[j] = ir.CloneFunc(mod.Funcs[j])
			}
		}
	}

	resolveFor := func(i int) func(string) *ir.Func {
		return func(name string) *ir.Func {
			j, ok := idx[name]
			if !ok {
				return nil
			}
			if j < i {
				return mod.Funcs[j] // finished: dependency-ordered
			}
			// Pre-pipeline snapshot; nil (never inlined) only if the
			// call graph said i cannot reach j — then the pipeline
			// never asks for it.
			return orig[j]
		}
	}

	tel := opts.Telemetry
	results := make([]funcResult, n)
	ready := make(chan int, n)
	for i := 0; i < n; i++ {
		if depCount[i] == 0 {
			ready <- i
		}
	}
	var done int32
	var wg sync.WaitGroup
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func(lane int) {
			defer wg.Done()
			for i := range ready {
				r := &results[i]
				// The per-function work runs inside a recover shield:
				// runFunc recovers pass panics itself, but a panic in
				// the scheduling shell (telemetry forks, clone
				// resolution) must still not take down the pool or
				// strand dependents waiting on this function.
				func() {
					defer func() {
						if rec := recover(); rec != nil {
							r.err = newPanicError(mod.Funcs[i].Name, "", rec)
						}
					}()
					o := opts
					o.Telemetry = tel.ForkLane(lane)
					r.tel = o.Telemetry
					r.stats, r.err = runFunc(mod, mod.Funcs[i], o, &r.aa, resolveFor(i), sums)
				}()
				for _, d := range dependents[i] {
					if atomic.AddInt32(&depCount[d], -1) == 0 {
						ready <- d
					}
				}
				if atomic.AddInt32(&done, 1) == int32(n) {
					close(ready)
				}
			}
		}(w + 1)
	}
	wg.Wait()

	// Fan-in strictly in original function order: telemetry names
	// register in the same sequence a sequential run would produce, and
	// errors aggregate exactly as the sequential loop reports them.
	errs := make([]error, 0, n)
	for i := range results {
		total.Add(results[i].stats)
		if aaStats != nil {
			aaStats.Add(results[i].aa)
		}
		tel.Merge(results[i].tel)
		errs = append(errs, results[i].err)
	}
	return total, errors.Join(errs...)
}
