// Command toolbench is the repository's end-to-end benchmark. It
// compiles and runs one workload through the driver's user path,
// checks every program's result against stored csem references, and
// prints one JSON line of metrics as its last line of output. With
// -trace 1 it instead composes the pipeline layer by layer and prints
// the per-layer ledger. See NOTES.md for the workloads and metrics.
//
//	bash toolbench/run.sh --workload kernels --seed 1 --seconds 30 --trace 0
//	bash toolbench/run.sh -regen-refs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("toolbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: kernels, spec-o3 or sanitize")
	seed := fs.Int64("seed", defaultSeed, "seed for the SPEC-shaped unit draw and the visiting order")
	seconds := fs.Float64("seconds", 30, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer ledger")
	regen := fs.Bool("regen-refs", false, "choose the SPEC-shaped draws, recompute every csem reference and write toolbench/refs.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *regen {
		if err := regenRefs("toolbench/refs.json", runtime.GOMAXPROCS(0)); err != nil {
			fmt.Fprintln(os.Stderr, "toolbench:", err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err != nil || *trace < 0 || *trace > 1 || *seconds <= 0 {
		if err == nil {
			err = fmt.Errorf("-trace must be 0 or 1 and -seconds positive")
		}
		fmt.Fprintln(os.Stderr, "toolbench:", err)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 1 {
		res, err = traced(w, *seed, budget)
	} else {
		res, err = endToEnd(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "toolbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "toolbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}
