// Command ubsan compiles a C source file with the unsequenced-race
// sanitizer (the paper's §4.1 UBSan derivation), executes it, and reports
// every must-not-alias violation observed at runtime. Exit status 1 means
// the program exhibited an unsequenced race on this input.
//
// Usage:
//
//	ubsan [-entry name] [-json report.json] [telemetry flags] file.c
//
// -json writes the machine-readable report: predicate statistics plus,
// for every violation, the violated π pair's provenance id, expression
// spellings, and the two source ranges — not just the assertion site.
// The telemetry flags -stats, -time-passes, -remarks, -metrics-json and
// -metrics-prom report on the instrumented compilation and run;
// -profile-cpu and -profile-mem profile the whole run, and -crash-dir
// routes crash dumps.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/driver"
	"repro/internal/sanitizer"
	"repro/internal/telemetry"
	"repro/internal/telemetry/obsserver"
	"repro/internal/workload"
)

func main() {
	entry := flag.String("entry", "main", "entry function to execute")
	jsonPath := flag.String("json", "", "write the report (with π-pair provenance per violation) as JSON to `path`")
	jobs := flag.Int("j", 0, "per-function compilation parallelism (0 = GOMAXPROCS, 1 = sequential)")
	pf := driver.RegisterPassFlags(flag.CommandLine)
	tf := telemetry.RegisterFlags(flag.CommandLine)
	obs := obsserver.RegisterFlags(flag.CommandLine)
	flag.Parse()
	driver.SetDefaultJobs(*jobs)
	if err := pf.Apply(); err != nil {
		fmt.Fprintln(os.Stderr, "ubsan:", err)
		os.Exit(1)
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ubsan [-entry name] file.c")
		os.Exit(2)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ubsan:", err)
		os.Exit(1)
	}
	driver.SetDefaultCrashDir(obs.CrashDir)
	tel := telemetry.New(tf.Config())
	obsHandle, err := obs.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ubsan:", err)
		os.Exit(1)
	}
	defer obsHandle.Close()
	rep, err := sanitizer.Check(path, string(src), workload.Files(), *entry, nil, tel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ubsan:", err)
		obsserver.Exit(1)
	}
	fmt.Printf("predicates: %d total, %d with calls (skipped), %d bitfield-dropped, %d checks inserted\n",
		rep.PredsTotal, rep.PredsWithCalls, rep.BitfieldDropped, rep.ChecksInserted)
	fmt.Printf("result: %d\n", rep.Result)
	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ubsan: json:", err)
			obsserver.Exit(1)
		}
	}
	if err := tf.Finish(tel, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ubsan:", err)
		obsserver.Exit(1)
	}
	if len(rep.Failures) == 0 {
		fmt.Println("clean: no unsequenced races observed")
		return
	}
	for _, f := range rep.Failures {
		fmt.Println("VIOLATION:", f)
	}
	obsserver.Exit(1) // os.Exit would skip the defer; flush profiles first
}
