package driver

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/ooe"
	"repro/internal/telemetry"
)

// Explain renders the -explain report: for every full expression the
// OOE analysis visited, the computed ω/θ/γ/π judgement sets with source
// locations, then which π pairs were consumed by which optimization —
// resolved from the alias-query audit log and remark stream in snap
// (either may be absent; consumption lines degrade gracefully).
func Explain(w io.Writer, c *Compilation, snap *telemetry.Snapshot) error {
	// Full-expression root ID -> declaring function.
	fnOf := map[int]string{}
	for _, f := range c.TU.Funcs {
		if f.Body == nil {
			continue
		}
		for _, e := range ast.FullExprs(f.Body) {
			fnOf[e.ID()] = f.Name
		}
	}
	// Full-expression root ID -> π provenance entries irgen recorded.
	provByRoot := map[int][]ir.PredProvenance{}
	for _, p := range c.Module.Provenance {
		provByRoot[p.Root] = append(provByRoot[p.Root], p)
	}
	queriedBy, enabled := consumption(snap)

	curFn := ""
	for _, rep := range c.Reports {
		root := rep.Result.Root
		if fn := fnOf[root.ID()]; fn != curFn && fn != "" {
			fmt.Fprintf(w, "== function %s ==\n", fn)
			curFn = fn
		}
		sets, _ := rep.Result.Sets(root.ID())
		fmt.Fprintf(w, "%s: %s\n", root.Pos(), ast.ExprString(root))
		fmt.Fprintf(w, "  ω = %s\n", setString(sets.Omega, rep.Result))
		fmt.Fprintf(w, "  θ = %s\n", setString(sets.Theta, rep.Result))
		fmt.Fprintf(w, "  γ = %s\n", setString(sets.Gamma, rep.Result))
		fmt.Fprintf(w, "  π = %s\n", piString(sets.Pi, rep.Result, provByRoot[root.ID()]))
		for _, p := range rep.Predicates {
			note := predicateNote(p)
			if note != "" {
				fmt.Fprintf(w, "      %s: %s\n", p, note)
			}
		}
	}

	if len(c.Module.Provenance) == 0 {
		fmt.Fprintln(w, "no π predicates were lowered (nothing for unseq-aa to consume)")
		return nil
	}
	fmt.Fprintln(w, "== π pair consumption ==")
	for _, p := range c.Module.Provenance {
		line := fmt.Sprintf("pred #%d {%s, %s} (%s, %s) in %s", p.Meta, p.E1, p.E2, p.Span1, p.Span2, p.Fn)
		if passes := queriedBy[p.Meta]; len(passes) > 0 {
			line += ": NoAlias for " + strings.Join(passes, ", ")
		} else if snap == nil || len(snap.AliasQueries) == 0 {
			line += ": (no audit log; rerun with -aa-audit for query attribution)"
		} else {
			line += ": never the deciding answer"
		}
		fmt.Fprintln(w, line)
		for _, e := range enabled[p.Meta] {
			fmt.Fprintf(w, "    enabled %s\n", e)
		}
	}
	return nil
}

// consumption extracts, per provenance id, the passes whose queries
// unseq-aa decided (audit log) and the transforms it enabled (remarks).
func consumption(snap *telemetry.Snapshot) (queriedBy, enabled map[int][]string) {
	queriedBy = map[int][]string{}
	enabled = map[int][]string{}
	if snap == nil {
		return queriedBy, enabled
	}
	for _, q := range snap.AliasQueries {
		if !q.UnseqDecided || q.PredicateMeta <= 0 {
			continue
		}
		pass := q.Pass
		if pass == "" {
			pass = "(unattributed)"
		}
		if !contains(queriedBy[q.PredicateMeta], pass) {
			queriedBy[q.PredicateMeta] = append(queriedBy[q.PredicateMeta], pass)
		}
	}
	for _, r := range snap.Remarks {
		if !r.EnabledByUnseqAA || r.PredicateMeta <= 0 {
			continue
		}
		e := r.Pass + ":" + r.Kind
		if r.Loc != "" {
			e += " @ " + r.Loc
		}
		e += " in " + r.Function
		if !contains(enabled[r.PredicateMeta], e) {
			enabled[r.PredicateMeta] = append(enabled[r.PredicateMeta], e)
		}
	}
	return queriedBy, enabled
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// setString renders an ID set as the member expressions with their
// source ranges.
func setString(s ooe.IDSet, r *ooe.Result) string {
	ids := s.Sorted()
	parts := make([]string, 0, len(ids))
	for _, id := range ids {
		e := r.Expr(id)
		if e == nil {
			parts = append(parts, fmt.Sprintf("#%d", id))
			continue
		}
		parts = append(parts, fmt.Sprintf("%s @ %s", ast.ExprString(e), ast.SpanString(e)))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// piString renders the π pair set, tagging each pair that was lowered
// to an intrinsic with its provenance id.
func piString(pi ooe.PairSet, r *ooe.Result, provs []ir.PredProvenance) string {
	pairs := pi.Sorted()
	parts := make([]string, 0, len(pairs))
	for _, p := range pairs {
		e1, e2 := r.Expr(p.A), r.Expr(p.B)
		s1, s2 := fmt.Sprintf("#%d", p.A), fmt.Sprintf("#%d", p.B)
		if e1 != nil {
			s1 = ast.ExprString(e1)
		}
		if e2 != nil {
			s2 = ast.ExprString(e2)
		}
		entry := fmt.Sprintf("{%s, %s}", s1, s2)
		if meta := findMeta(provs, s1, s2); meta > 0 {
			entry += fmt.Sprintf(" [pred #%d]", meta)
		}
		parts = append(parts, entry)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// findMeta matches a rendered π pair to its provenance entry (the pair
// is unordered; predicates may record the operands either way around).
func findMeta(provs []ir.PredProvenance, s1, s2 string) int {
	for _, p := range provs {
		if (p.E1 == s1 && p.E2 == s2) || (p.E1 == s2 && p.E2 == s1) {
			return p.Meta
		}
	}
	return 0
}

// predicateNote explains why a predicate was filtered before lowering.
func predicateNote(p ooe.Predicate) string {
	switch {
	case p.BothBitfields:
		return "dropped (both sides are bitfields; unsound under widening, §4.2.3)"
	case p.ImpureCall:
		return "not lowered (contains a call not known pure)"
	case len(p.Calls) > 0:
		return "lowered for AA only (contains calls: no sanitizer check)"
	}
	return ""
}
