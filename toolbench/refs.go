package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"

	"repro/internal/csem"
	"repro/internal/driver"
	"repro/internal/parser"
	"repro/internal/sema"
	"repro/internal/workload"
)

// csemMaxSteps raises csem's default 2M-step budget: the Polybench
// kernels take far more steps than that.
const csemMaxSteps = 4_000_000_000

//go:embed refs.json
var storedRefs []byte

// files is the include set every workload program compiles against.
var files = workload.Files()

// refEntry is one stored reference: main's csem result as a C int.
type refEntry struct {
	Name   string `json:"name"`
	Result int32  `json:"result"`
}

// refStore maps sourceKey(program) to its reference.
type refStore map[string]refEntry

// refsFile is refs.json: the chosen SPEC-shaped draws and the csem
// reference of every program any workload can run.
type refsFile struct {
	Draws []int    `json:"draws"`
	Refs  refStore `json:"refs"`
}

// sourceKey hashes a program's source together with the include set it
// compiles against, so an edited program or header misses the store.
func sourceKey(src string) string {
	h := sha256.New()
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "%s\x00%d\x00%s\x00", n, len(files[n]), files[n])
	}
	h.Write([]byte(src))
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func loadRefs() (refsFile, error) {
	var rf refsFile
	if err := json.Unmarshal(storedRefs, &rf); err != nil {
		return rf, fmt.Errorf("refs.json: %w", err)
	}
	if len(rf.Draws) == 0 {
		return rf, fmt.Errorf("refs.json lists no SPEC-shaped draws; run -regen-refs")
	}
	return rf, nil
}

// csemResult runs main under the AST-level C semantics (left-to-right
// evaluation order, the compiler's lowering order) and returns its
// value as the C int main returns.
func csemResult(u *unit) (int32, error) {
	tu, perrs := parser.ParseFile(u.name, u.src, files)
	if len(perrs) > 0 {
		return 0, fmt.Errorf("%s: parse: %v", u.name, perrs[0])
	}
	if errs := sema.Check(tu); len(errs) > 0 {
		return 0, fmt.Errorf("%s: sema: %v", u.name, errs[0])
	}
	m, err := csem.NewMachine(tu, csem.LeftFirst{})
	if err != nil {
		return 0, fmt.Errorf("%s: csem: %w", u.name, err)
	}
	m.MaxSteps = csemMaxSteps
	v, err := m.Run("main")
	if err != nil {
		return 0, fmt.Errorf("%s: csem: %w", u.name, err)
	}
	return int32(v.AsInt()), nil
}

// resolveRefs sets every unit's ref. It looks the unit up in stored,
// then in computed; a unit in neither gets its reference from csem,
// which is added to computed. It returns how many units stored lacks.
// It runs one program at a time: csem interns function addresses in
// package-level maps, so it is not safe for concurrent use.
func resolveRefs(stored, computed refStore, us []*unit) (int, error) {
	missed := 0
	for _, u := range us {
		k := sourceKey(u.src)
		e, ok := stored[k]
		if !ok {
			missed++
			if e, ok = computed[k]; !ok {
				r, err := csemResult(u)
				if err != nil {
					return missed, err
				}
				e = refEntry{Name: u.name, Result: r}
				computed[k] = e
			}
		}
		u.ref = e.Result
	}
	return missed, nil
}

// regenRefs chooses the SPEC-shaped draws (compiling on workers
// goroutines), recomputes the reference of every program any workload
// can run with them, and writes refs.json.
func regenRefs(path string, workers int) error {
	draws, err := balancedDraws(workers)
	if err != nil {
		return err
	}
	var us []*unit
	for _, w := range workloads {
		for _, d := range draws {
			us = append(us, w.units(d)...)
		}
	}
	rf := refsFile{Draws: draws, Refs: refStore{}}
	if _, err := resolveRefs(nil, rf.Refs, us); err != nil {
		return err
	}
	out, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// balancedDraws generates specCandidates SPEC-shaped draws, totals each
// one's simulated cycles on every leg and its post-optimization IR
// instructions, and keeps the specDraws draws whose largest relative
// distance from the candidates' median totals is smallest.
func balancedDraws(workers int) ([]int, error) {
	legs := []leg{legBase, legUnseq, legSanitize}
	totals := make([][]float64, specCandidates)
	errs := make([]error, specCandidates)
	parallel(specCandidates, workers, func(c int) {
		tot := make([]float64, len(legs)+1)
		for _, u := range specUnits(c) {
			for k, l := range legs {
				comp, err := driver.Compile(u.name, u.src, task{u: u, l: l}.config())
				if err != nil {
					errs[c] = err
					return
				}
				_, cycles, err := comp.Run("")
				if err != nil {
					errs[c] = err
					return
				}
				tot[k] += cycles
				tot[len(legs)] += float64(moduleInstrs(comp.Module))
			}
		}
		totals[c] = tot
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	medians := make([]float64, len(legs)+1)
	for k := range medians {
		var xs []float64
		for _, tot := range totals {
			xs = append(xs, tot[k])
		}
		medians[k] = median(xs)
	}
	dist := make([]float64, specCandidates)
	for c, tot := range totals {
		for k, m := range medians {
			dist[c] = math.Max(dist[c], math.Abs(tot[k]-m)/m)
		}
	}
	draws := make([]int, specCandidates)
	for c := range draws {
		draws[c] = c
	}
	sort.SliceStable(draws, func(i, j int) bool { return dist[draws[i]] < dist[draws[j]] })
	draws = draws[:specDraws]
	sort.Ints(draws)
	for _, d := range draws {
		fmt.Fprintf(os.Stderr, "draw %d: totals %v, largest distance from the median %.4f\n", d, totals[d], dist[d])
	}
	return draws, nil
}

// parallel calls f(0), ..., f(n-1) on up to workers goroutines and
// returns once every call has.
func parallel(n, workers int, f func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
