package workload

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/profile"
	"repro/internal/telemetry"
)

// Table5Row aggregates the paper's Table 5 statistics for one benchmark
// over its generated units.
type Table5Row struct {
	Bench SpecBenchmark
	// GenLOC is the generated source line count (the scaled-down kloc).
	GenLOC int
	// The measured columns (absolute, for the generated corpus size).
	UnseqExprs   int
	InitialPreds int
	FinalPreds   int
	UniquePreds  int
	ExtraNoAlias int
	// Query counts for the %-increase column.
	QueriesBase, QueriesOOE int
}

// QueryIncreasePct is Table 5's last column.
func (r Table5Row) QueryIncreasePct() float64 {
	if r.QueriesBase == 0 {
		return 0
	}
	return 100 * float64(r.QueriesOOE-r.QueriesBase) / float64(r.QueriesBase)
}

// MeasureTable5 compiles every generated unit of b under baseline and
// OOElala configurations and aggregates the Table 5 columns.
func MeasureTable5(b SpecBenchmark) (Table5Row, error) {
	return MeasureTable5With(b, nil)
}

// MeasureTable5With is MeasureTable5 with telemetry attached to the
// OOElala-side compilations.
func MeasureTable5With(b SpecBenchmark, tel *telemetry.Session) (Table5Row, error) {
	row := Table5Row{Bench: b}
	for _, u := range GenerateUnits(b) {
		row.GenLOC += countLines(u.Source)
		ooe, err := driver.Compile(u.Name, u.Source, driver.Config{OOElala: true, Telemetry: tel})
		if err != nil {
			return row, fmt.Errorf("%s: %w", u.Name, err)
		}
		base, err := driver.Compile(u.Name, u.Source, driver.Config{OOElala: false})
		if err != nil {
			return row, fmt.Errorf("%s baseline: %w", u.Name, err)
		}
		row.UnseqExprs += ooe.Frontend.FullExprsUnseqSE
		row.InitialPreds += ooe.Frontend.InitialPreds
		row.FinalPreds += ooe.FinalPreds
		row.UniquePreds += ooe.UniqueFinalPreds
		row.ExtraNoAlias += ooe.AAStats.UnseqNoAlias
		row.QueriesOOE += ooe.AAStats.Queries
		row.QueriesBase += base.AAStats.Queries
	}
	return row, nil
}

// Table6Row is one benchmark's runtime comparison (the paper's Table 6).
type Table6Row struct {
	Bench       SpecBenchmark
	CyclesBase  float64
	CyclesOOE   float64
	ResultMatch bool
}

// DeltaPct is the improvement percentage (positive = OOElala faster).
func (r Table6Row) DeltaPct() float64 {
	if r.CyclesBase == 0 {
		return 0
	}
	return 100 * (r.CyclesBase - r.CyclesOOE) / r.CyclesBase
}

// MeasureTable6 runs every generated unit of b under both compilers and
// sums simulated cycles.
func MeasureTable6(b SpecBenchmark) (Table6Row, error) {
	return MeasureTable6With(b, nil)
}

// MeasureTable6With is MeasureTable6 with telemetry attached to the
// OOElala-side compilations and runs (the baseline is untracked). Each
// run's cycles are a whole number of milli-cycles, so the sums are kept
// in integer milli-cycles and divided once: a float64 sum would pick up
// rounding error in the low bits.
func MeasureTable6With(b SpecBenchmark, tel *telemetry.Session) (Table6Row, error) {
	row := Table6Row{Bench: b, ResultMatch: true}
	var milliBase, milliOOE int64
	for _, u := range GenerateUnits(b) {
		base, err := driver.Compile(u.Name, u.Source, driver.Config{OOElala: false})
		if err != nil {
			return row, fmt.Errorf("%s baseline: %w", u.Name, err)
		}
		ooe, err := driver.Compile(u.Name, u.Source, driver.Config{OOElala: true, Telemetry: tel})
		if err != nil {
			return row, fmt.Errorf("%s: %w", u.Name, err)
		}
		rB, cB, err := base.Run("")
		if err != nil {
			return row, fmt.Errorf("%s baseline run: %w", u.Name, err)
		}
		rO, cO, err := ooe.Run("")
		if err != nil {
			return row, fmt.Errorf("%s ooelala run: %w", u.Name, err)
		}
		if rB != rO {
			row.ResultMatch = false
			return row, fmt.Errorf("%s: MISCOMPILE baseline=%d ooelala=%d", u.Name, rB, rO)
		}
		milliBase += profile.Milli(cB)
		milliOOE += profile.Milli(cO)
	}
	row.CyclesBase, row.CyclesOOE = float64(milliBase)/1000, float64(milliOOE)/1000
	return row, nil
}

func countLines(s string) int {
	n := 1
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			n++
		}
	}
	return n
}
