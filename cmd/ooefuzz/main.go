// Command ooefuzz is the differential fuzzer: it generates random C
// programs over the supported subset, runs each through the reference
// semantics (under enumerated evaluation orders), the O0 and O3
// pipelines (with and without unseq-aa, sequential and parallel), and
// the sanitizer build, and reports any divergence as a JSON crash
// report. Exit status: 0 clean, 1 findings (or internal error), 2 usage.
//
// -crash-dir routes any crash-<unit>.json flight-recorder dumps from
// pass panics inside the fuzzed compilations, and -profile-cpu /
// -profile-mem profile a long sweep.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"

	"repro/internal/csem"
	"repro/internal/driver"
	"repro/internal/fuzz"
	"repro/internal/telemetry/obsserver"
)

func main() {
	var (
		n       = flag.Int("n", 100, "number of programs to generate")
		seed    = flag.Int64("seed", 1, "base seed (program i uses seed+i)")
		out     = flag.String("out", "", "corpus directory for crash reports (default: report to stdout only)")
		reduce  = flag.Bool("reduce", false, "delta-reduce each crashing program")
		racy    = flag.Float64("racy", 0, "probability a full expression deliberately races (exercises the sanitizer)")
		strict  = flag.Bool("strict", false, "count sanitizer misses on racy programs as findings")
		orders  = flag.Int("orders", 0, "max enumerated evaluation orders per program (0 = default)")
		stmts   = flag.Int("stmts", 0, "max statements per program (0 = default)")
		jsonOut = flag.Bool("json", false, "print the run summary as JSON")
		quiet   = flag.Bool("q", false, "suppress per-crash progress lines")
		cross   = flag.Bool("cross-engine", false,
			"run every leg on both the bytecode vm and the tree-walking oracle and flag any divergence")
		inlineOff = flag.Bool("inline-off", false,
			"add -O3 legs with inlining defeated, so call-site mod/ref resolves through interprocedural summaries")
		callBias = flag.Float64("callbias", -1,
			"probability a statement is a standalone helper call (negative = generator default)")
	)
	obs := obsserver.RegisterFlags(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ooefuzz [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *n <= 0 {
		fmt.Fprintln(os.Stderr, "ooefuzz: -n must be positive")
		os.Exit(2)
	}

	driver.SetDefaultCrashDir(obs.CrashDir)
	obsHandle, err := obs.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ooefuzz:", err)
		os.Exit(1)
	}
	defer obsHandle.Close()

	cfg := fuzz.DefaultConfig()
	cfg.RacyBias = *racy
	if *stmts > 0 {
		cfg.MaxStmts = *stmts
	}
	if *callBias >= 0 {
		cfg.CallBias = *callBias
	}
	opts := fuzz.RunOpts{
		N:           *n,
		Seed:        *seed,
		Config:      cfg,
		Reduce:      *reduce,
		Strict:      *strict,
		CrossEngine: *cross,
		InlineOff:   *inlineOff,
		Explore:     csem.ExploreOpts{MaxOrders: *orders, Seed: *seed},
	}
	if !*quiet {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	// SIGINT/SIGTERM (e.g. a CI time box expiring) stops the sweep at
	// the next program boundary so the summary and any crash reports
	// already found still get written.
	var stopped atomic.Bool
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		stopped.Store(true)
		signal.Stop(sigc) // a second signal kills us outright
	}()
	opts.Stop = stopped.Load

	// Crash reports are flushed as they are found, not at the end, so an
	// interrupted run has already persisted everything it discovered.
	writeErr := false
	if *out != "" {
		opts.OnCrash = func(r *fuzz.CrashReport) error {
			if err := r.Write(*out); err != nil {
				fmt.Fprintf(os.Stderr, "ooefuzz: writing report: %v\n", err)
				writeErr = true
				return err
			}
			return nil
		}
	}

	stats := fuzz.Run(opts)
	obsHandle.Close() // the exit paths below skip the defer; flush profiles now
	if writeErr {
		obsserver.Exit(1)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(stats); err != nil {
			fmt.Fprintf(os.Stderr, "ooefuzz: %v\n", err)
			obsserver.Exit(1)
		}
	} else {
		fmt.Printf("ooefuzz: %d programs (%d UB-free, %d racy; sanitizer caught %d, missed %d)\n",
			stats.Programs, stats.UBFree, stats.UBRacy, stats.SanCaught, stats.SanMissed)
		for _, r := range stats.Crashes {
			fmt.Printf("CRASH seed=%d kind=%s\n", r.Seed, r.Kind)
		}
		if len(stats.Crashes) == 0 {
			fmt.Println("clean: no divergence between reference semantics and compiled pipelines")
		}
	}
	if len(stats.Crashes) > 0 {
		obsserver.Exit(1)
	}
}
