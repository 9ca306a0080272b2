package vm_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/vm"
)

// TestDispatchMixSanitizeSet logs the dispatches of one pass over the
// sanitize set of draw 11, the benchmark's sanitize workload at seed 1,
// by pc name, as the unprofiled dispatch loop makes them. Run it with -v
// to regenerate the dispatch figures of EXPERIMENTS.md.
func TestDispatchMixSanitizeSet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sanitize set with profiling on")
	}
	mix := map[string]int64{}
	var total int64
	for _, p := range sanitizeSet(11) {
		for name, n := range vm.DispatchMix(vm.Compile(compileSanitized(t, p.Name, p.Source))) {
			mix[name] += n
			total += n
		}
	}
	names := make([]string, 0, len(mix))
	for name := range mix {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		return mix[names[i]] > mix[names[j]] || mix[names[i]] == mix[names[j]] && names[i] < names[j]
	})
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "\n  %-24s %12d %5.1f%%", name, mix[name], 100*float64(mix[name])/float64(total))
	}
	// What each kind of work folded into the pc next to it saved: a
	// folded slot load, a trailing br and the access that ends a
	// four-step chain each cost a dispatch of their own before.
	var folds, brs, chains int64
	for name, n := range mix {
		switch {
		case strings.HasPrefix(name, "fold2_"):
			folds += 2 * n
		case strings.HasPrefix(name, "fold_"):
			folds += n
		}
		if strings.HasSuffix(name, "_fall") {
			brs += n
		}
		if strings.Contains(name, "load_conv_gep_load") || strings.Contains(name, "load_conv_gep_store") {
			chains += n
		}
	}
	t.Logf("draw 11: %d dispatches per pass; saved %d by slot folds, %d by trailing brs, %d by four-step chains%s",
		total, folds, brs, chains, b.String())
}
