// Command benchdiff compares two BENCH_ooebench.json artifacts (as
// written by `ooebench -json`) and fails when the current run regresses
// past a tolerance, so CI can gate on cost-model performance:
//
//	benchdiff [-tolerance pct] baseline.json current.json
//	benchdiff -metrics [-tolerance pct] baseline-metrics.json current-metrics.json
//	benchdiff -gobench [-tolerance pct] baseline-bench.txt current-bench.txt
//
// Table 4 rows regress when a kernel's speedup drops more than the
// tolerance below the baseline's; Table 6 rows regress when a bench's
// OOElala cycle count grows more than the tolerance above the
// baseline's. A kernel or bench present in the baseline but missing
// from the current run is also a failure (a silently dropped benchmark
// must not pass the gate). Exit status: 0 ok, 1 regression, 2 usage
// (not two inputs, or more than one mode flag).
//
// With -metrics, the inputs are instead two -metrics-json exports (from
// any telemetry-carrying CLI run with -time-passes) and the diff is over
// per-span wall-clock timing: a phase or pass span whose total time grew
// more than the tolerance regresses, and a span present in the baseline
// but missing from the current run fails the gate.
//
// With -gobench, the inputs are two `go test -bench` output captures
// and the diff is over wall-clock ns/op: repeated -count runs collapse
// to their minimum, and a benchmark whose current minimum exceeds the
// baseline's by more than the tolerance regresses. CI uses this to gate
// run-leg dispatch overhead (profiling off must stay within 2% of the
// base commit).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

type benchJSON struct {
	Table4 []table4Row `json:"table4"`
	Table6 []table6Row `json:"table6"`
}

type table4Row struct {
	Kernel  string  `json:"kernel"`
	Speedup float64 `json:"speedup"`
}

type table6Row struct {
	Bench      string  `json:"bench"`
	CyclesBase float64 `json:"cyclesBase"`
	CyclesOOE  float64 `json:"cyclesOOElala"`
}

func main() {
	tol := flag.Float64("tolerance", 10, "allowed regression in percent")
	metrics := flag.Bool("metrics", false, "diff per-span timing from two -metrics-json files instead of bench tables")
	gobench := flag.Bool("gobench", false, "diff ns/op from two `go test -bench` output files instead of bench tables")
	flag.Parse()
	if flag.NArg() != 2 || *metrics && *gobench {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-metrics|-gobench] [-tolerance pct] baseline current")
		os.Exit(2)
	}
	if *metrics {
		diffMetrics(flag.Arg(0), flag.Arg(1), *tol)
		return
	}
	if *gobench {
		diffGoBench(flag.Arg(0), flag.Arg(1), *tol)
		return
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fatal(err)
	}

	regressions := 0
	report := func(kind, name string, baseV, curV, deltaPct float64, worse bool) {
		status := "ok"
		if worse {
			status = "REGRESSION"
			regressions++
		}
		fmt.Printf("%-8s %-14s base=%-14.4g cur=%-14.4g delta=%+7.2f%%  %s\n",
			kind, name, baseV, curV, deltaPct, status)
	}

	cur4 := map[string]table4Row{}
	for _, r := range cur.Table4 {
		cur4[r.Kernel] = r
	}
	for _, b := range base.Table4 {
		c, ok := cur4[b.Kernel]
		if !ok {
			fmt.Printf("table4   %-14s MISSING from current run\n", b.Kernel)
			regressions++
			continue
		}
		delta := 100 * (c.Speedup - b.Speedup) / b.Speedup
		report("table4", b.Kernel, b.Speedup, c.Speedup, delta, delta < -*tol)
	}

	cur6 := map[string]table6Row{}
	for _, r := range cur.Table6 {
		cur6[r.Bench] = r
	}
	for _, b := range base.Table6 {
		c, ok := cur6[b.Bench]
		if !ok {
			fmt.Printf("table6   %-14s MISSING from current run\n", b.Bench)
			regressions++
			continue
		}
		delta := 100 * (c.CyclesOOE - b.CyclesOOE) / b.CyclesOOE
		report("table6", b.Bench, b.CyclesOOE, c.CyclesOOE, delta, delta > *tol)
	}

	if regressions > 0 {
		fmt.Printf("benchdiff: %d regression(s) beyond %.1f%% tolerance\n", regressions, *tol)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: all rows within %.1f%% tolerance\n", *tol)
}

// metricsJSON is the slice of a telemetry -metrics-json export the
// timing diff consumes (internal/telemetry.WriteJSON's "phases" array).
type metricsJSON struct {
	Phases []phaseRow `json:"phases"`
}

type phaseRow struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
}

// diffGoBench compares two `go test -bench` output files by ns/op.
// Repeated runs of one benchmark (from -count=N) collapse to their
// minimum — the standard robust estimator against scheduler noise — and
// a benchmark regresses when its current minimum exceeds the baseline
// minimum by more than the tolerance. Benchmarks present only in the
// baseline fail the gate; benchmarks only in the current run are
// reported but pass (new coverage is not a regression).
func diffGoBench(basePath, curPath string, tol float64) {
	base, err := loadGoBench(basePath)
	if err != nil {
		fatal(err)
	}
	cur, err := loadGoBench(curPath)
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	regressions := 0
	for _, name := range names {
		c, ok := cur[name]
		if !ok {
			fmt.Printf("gobench  %-40s MISSING from current run\n", name)
			regressions++
			continue
		}
		b := base[name]
		delta := 100 * (c - b) / b
		status := "ok"
		if delta > tol {
			status = "REGRESSION"
			regressions++
		}
		fmt.Printf("gobench  %-40s base=%-12s cur=%-12s delta=%+7.2f%%  %s\n",
			name, nsString(int64(b)), nsString(int64(c)), delta, status)
	}
	for name := range cur {
		if _, ok := base[name]; !ok {
			fmt.Printf("gobench  %-40s new (no baseline)\n", name)
		}
	}
	if regressions > 0 {
		fmt.Printf("%d regression(s) beyond %.1f%%\n", regressions, tol)
		os.Exit(1)
	}
	fmt.Println("no regressions")
}

// loadGoBench parses `go test -bench` output into name -> min ns/op.
func loadGoBench(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		// "BenchmarkRunLeg/vm/bicg-8  100  123456 ns/op  ..."
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		var nsPerOp float64
		found := false
		for i := 2; i+1 < len(fields); i++ {
			if fields[i+1] == "ns/op" {
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return nil, fmt.Errorf("%s: bad ns/op in %q", path, line)
				}
				nsPerOp, found = v, true
				break
			}
		}
		if !found {
			continue
		}
		// Strip the trailing -<GOMAXPROCS> suffix so runs from machines
		// with different core counts still join.
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if prev, ok := out[name]; !ok || nsPerOp < prev {
			out[name] = nsPerOp
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines found", path)
	}
	return out, nil
}

// diffMetrics compares per-span wall-clock totals between two
// -metrics-json exports. A span's total growing beyond tol percent is a
// regression, as is a baseline span missing from the current run.
func diffMetrics(basePath, curPath string, tol float64) {
	base, err := loadMetrics(basePath)
	if err != nil {
		fatal(err)
	}
	cur, err := loadMetrics(curPath)
	if err != nil {
		fatal(err)
	}
	curBy := map[string]phaseRow{}
	for _, r := range cur.Phases {
		curBy[r.Name] = r
	}
	regressions := 0
	for _, b := range base.Phases {
		c, ok := curBy[b.Name]
		if !ok {
			fmt.Printf("span     %-24s MISSING from current run\n", b.Name)
			regressions++
			continue
		}
		if b.TotalNS <= 0 {
			continue
		}
		delta := 100 * float64(c.TotalNS-b.TotalNS) / float64(b.TotalNS)
		status := "ok"
		if delta > tol {
			status = "REGRESSION"
			regressions++
		}
		fmt.Printf("span     %-24s base=%-12s cur=%-12s delta=%+7.2f%%  %s\n",
			b.Name, nsString(b.TotalNS), nsString(c.TotalNS), delta, status)
	}
	if regressions > 0 {
		fmt.Printf("benchdiff: %d span regression(s) beyond %.1f%% tolerance\n", regressions, tol)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: all spans within %.1f%% tolerance\n", tol)
}

func nsString(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3gs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.3gms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.3gus", float64(ns)/1e3)
	}
	return fmt.Sprintf("%dns", ns)
}

func loadMetrics(path string) (*metricsJSON, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m metricsJSON
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(m.Phases) == 0 {
		return nil, fmt.Errorf("%s: no phase spans (was it written with -time-passes -metrics-json?)", path)
	}
	return &m, nil
}

func load(path string) (*benchJSON, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchJSON
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Table4) == 0 && len(b.Table6) == 0 {
		return nil, fmt.Errorf("%s: no table4/table6 rows (was it written by ooebench -json?)", path)
	}
	return &b, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
