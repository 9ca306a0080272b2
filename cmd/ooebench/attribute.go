package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/driver"
	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// The ooelala-benefit/v1 artifact: per-kernel, per-function cycle
// deltas between the baseline-O3 and unseq-O3 run legs, joined against
// the optimization remarks that unseq-aa enabled and, through them, the
// π predicate provenance that licensed each transformation. This closes
// the loop the paper argues qualitatively: which source-level
// must-not-alias pair bought which measured cycles.
type benefitJSON struct {
	Schema  string          `json:"schema"` // "ooelala-benefit/v1"
	Engine  string          `json:"engine"`
	Kernels []benefitKernel `json:"kernels"`
}

type benefitKernel struct {
	Kernel     string      `json:"kernel"`
	CyclesBase float64     `json:"cyclesBase"`
	CyclesOOE  float64     `json:"cyclesOOElala"`
	Saved      float64     `json:"saved"`
	SavedPct   float64     `json:"savedPct"`
	Functions  []benefitFn `json:"functions"`
}

type benefitFn struct {
	Fn         string        `json:"fn"`
	CyclesBase float64       `json:"cyclesBase"`
	CyclesOOE  float64       `json:"cyclesOOElala"`
	Saved      float64       `json:"saved"`
	Pairs      []benefitPair `json:"pairs,omitempty"`
}

// benefitPair is one π predicate that enabled at least one optimization
// remark in the function, identified by its provenance id and the two
// source lvalue spellings it was derived from.
type benefitPair struct {
	Meta    int      `json:"meta"`
	E1      string   `json:"e1"`
	E2      string   `json:"e2"`
	Pos     string   `json:"pos,omitempty"`
	Remarks []string `json:"remarks"` // "pass/kind@loc", deduped, sorted
}

// attribute runs every Table 4 kernel under both configurations with
// the cycle profiler on, diffs the per-function profiles, and joins the
// savings against π-pair provenance. The interprocedural kernels ride
// along with their own A/B pair — summaries vs. the call barrier, both
// inline-off — so the artifact also prices what π-through-summaries
// buys. Writes BENCH_attribution.json.
func attribute() error {
	fmt.Println("== Benefit attribution: per-function cycle deltas joined to π-pair provenance ==")
	out := benefitJSON{Schema: "ooelala-benefit/v1", Engine: driver.EngineVM}
	type job struct {
		p        workload.Program
		base, ab driver.Config
	}
	jobs := make([]job, 0, 8)
	for _, p := range workload.PolybenchKernels() {
		jobs = append(jobs, job{p,
			driver.Config{OOElala: false, Files: workload.Files()},
			driver.Config{OOElala: true, Files: workload.Files()}})
	}
	for _, p := range workload.InterprocKernels() {
		jobs = append(jobs, job{p,
			driver.Config{OOElala: true, Files: workload.Files(), PassOptions: noInlineOptions(false)},
			driver.Config{OOElala: true, Files: workload.Files(), PassOptions: noInlineOptions(true)}})
	}
	for _, j := range jobs {
		k, err := attributeKernel(j.p, j.base, j.ab)
		if err != nil {
			return fmt.Errorf("%s: %w", j.p.Name, err)
		}
		out.Kernels = append(out.Kernels, *k)
		fmt.Printf("%-12s base %14.0f  ooelala %14.0f  saved %12.0f (%.2f%%)\n",
			k.Kernel, k.CyclesBase, k.CyclesOOE, k.Saved, k.SavedPct)
		for _, fn := range k.Functions {
			if fn.Saved == 0 && len(fn.Pairs) == 0 {
				continue
			}
			fmt.Printf("  %-20s saved %12.0f cycles", fn.Fn, fn.Saved)
			if len(fn.Pairs) > 0 {
				fmt.Printf("  [%d π pair(s):", len(fn.Pairs))
				for _, pr := range fn.Pairs {
					fmt.Printf(" π%d=(%s,%s)", pr.Meta, pr.E1, pr.E2)
				}
				fmt.Print("]")
			}
			fmt.Println()
		}
	}
	f, err := os.Create("BENCH_attribution.json")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&out); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_attribution.json")
	return nil
}

func attributeKernel(p workload.Program, baseCfg, optCfg driver.Config) (*benefitKernel, error) {
	// Baseline leg is untracked; the optimized leg carries a private
	// remark-collecting session so the join below sees exactly this
	// kernel's remarks regardless of the process-wide telemetry flags.
	base, err := driver.Compile(p.Name, p.Source, baseCfg)
	if err != nil {
		return nil, fmt.Errorf("baseline compile: %w", err)
	}
	atel := telemetry.New(telemetry.Config{Metrics: true, Remarks: true})
	optCfg.Telemetry = atel
	opt, err := driver.Compile(p.Name, p.Source, optCfg)
	if err != nil {
		return nil, fmt.Errorf("ooelala compile: %w", err)
	}
	rBase, err := base.Exec(driver.RunOpts{Profile: true})
	if err != nil {
		return nil, fmt.Errorf("baseline run: %w", err)
	}
	rOpt, err := opt.Exec(driver.RunOpts{Profile: true})
	if err != nil {
		return nil, fmt.Errorf("ooelala run: %w", err)
	}
	if rBase.Value != rOpt.Value {
		return nil, fmt.Errorf("MISCOMPILE: baseline=%d ooelala=%d", rBase.Value, rOpt.Value)
	}
	cyBase, cyOpt := rBase.Cycles, rOpt.Cycles

	byFnBase := profile.ByFunction(rBase.Profile)
	byFnOpt := profile.ByFunction(rOpt.Profile)

	// π pairs per function: remarks the unseq-aa verdict enabled, joined
	// through the module provenance table back to source lvalue pairs.
	type pairAgg struct {
		prov    *benefitPair
		remarks map[string]bool
	}
	pairsByFn := map[string]map[int]*pairAgg{}
	for _, r := range atel.Snapshot().Remarks {
		if !r.EnabledByUnseqAA || r.PredicateMeta <= 0 {
			continue
		}
		prov := opt.Module.FindProvenance(r.PredicateMeta)
		if prov == nil {
			continue
		}
		m := pairsByFn[r.Function]
		if m == nil {
			m = map[int]*pairAgg{}
			pairsByFn[r.Function] = m
		}
		pa := m[r.PredicateMeta]
		if pa == nil {
			pa = &pairAgg{
				prov: &benefitPair{
					Meta: prov.Meta, E1: prov.E1, E2: prov.E2,
					Pos: prov.Pos.String(),
				},
				remarks: map[string]bool{},
			}
			m[r.PredicateMeta] = pa
		}
		tag := r.Pass + "/" + r.Kind
		if r.Loc != "" {
			tag += "@" + r.Loc
		}
		pa.remarks[tag] = true
	}

	fns := map[string]bool{}
	for fn := range byFnBase {
		fns[fn] = true
	}
	for fn := range byFnOpt {
		fns[fn] = true
	}
	names := make([]string, 0, len(fns))
	for fn := range fns {
		names = append(names, fn)
	}
	sort.Strings(names)

	k := &benefitKernel{Kernel: p.Name, CyclesBase: cyBase, CyclesOOE: cyOpt,
		Saved: cyBase - cyOpt}
	if cyBase > 0 {
		k.SavedPct = 100 * (cyBase - cyOpt) / cyBase
	}
	for _, fn := range names {
		bf := benefitFn{
			Fn:         fn,
			CyclesBase: byFnBase[fn],
			CyclesOOE:  byFnOpt[fn],
		}
		bf.Saved = bf.CyclesBase - bf.CyclesOOE
		if math.Abs(bf.Saved) < 1e-6 {
			bf.Saved = 0 // per-cell accumulation epsilon, not a real delta
		}
		metas := make([]int, 0, len(pairsByFn[fn]))
		for meta := range pairsByFn[fn] {
			metas = append(metas, meta)
		}
		sort.Ints(metas)
		for _, meta := range metas {
			pa := pairsByFn[fn][meta]
			tags := make([]string, 0, len(pa.remarks))
			for t := range pa.remarks {
				tags = append(tags, t)
			}
			sort.Strings(tags)
			pa.prov.Remarks = tags
			bf.Pairs = append(bf.Pairs, *pa.prov)
		}
		k.Functions = append(k.Functions, bf)
	}
	return k, nil
}

// profileOne compiles and profiles a single named kernel under the
// full unseq-O3 configuration and writes/prints the requested renderings
// (ooebench -profile-kernel bicg -profile-cycles bicg.pb [-annotate]).
func profileOne(name, pprofPath string, annotate bool) error {
	var prog *workload.Program
	all := append(workload.PolybenchKernels(), workload.ExtraPolybenchKernels()...)
	for i := range all {
		if all[i].Name == name {
			prog = &all[i]
			break
		}
	}
	if prog == nil {
		return fmt.Errorf("unknown kernel %q (want a Polybench kernel name, e.g. bicg)", name)
	}
	c, err := driver.Compile(prog.Name, prog.Source, driver.Config{
		OOElala: true, Files: workload.Files(), Telemetry: tel,
	})
	if err != nil {
		return err
	}
	r, err := c.Exec(driver.RunOpts{Profile: true})
	if err != nil {
		return err
	}
	prof := r.Profile
	fmt.Printf("%s: result %d, cycles %.0f (%d samples)\n",
		prog.Name, r.Value, r.Cycles, len(prof.Samples))
	if pprofPath != "" {
		f, err := os.Create(pprofPath)
		if err != nil {
			return err
		}
		if err := profile.WritePprof(f, prof); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("cycle profile: %s (view with `go tool pprof %s`)\n", pprofPath, pprofPath)
	}
	if annotate {
		sources := map[string]string{prog.Name: prog.Source}
		for k, v := range workload.Files() {
			sources[k] = v
		}
		return profile.WriteAnnotate(os.Stdout, prof, sources)
	}
	return nil
}
