package ooe

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/ast"
	"repro/internal/sema"
	"repro/internal/token"
)

// Config controls analysis behaviour.
type Config struct {
	// AssumeAllCallsImpure drops every predicate whose generating operator
	// has an operand containing *any* function call, pure or not. The
	// paper's sanitizer runs in this mode (§4.1: "we conservatively
	// generate predicates for only those must-not-alias relationships
	// where none of the expressions contain a function call").
	AssumeAllCallsImpure bool
	// NoGammaClear disables clearing γ at sequence points. UNSOUND — it
	// exists only for the ablation experiment showing why the sequencing
	// rules matter (DESIGN.md §5.2); never used for code generation.
	NoGammaClear bool
	// KeepBitfieldPredicates retains predicates both of whose sides are
	// bitfield accesses. UNSOUND under byte-widened lowering (§4.2.3);
	// for the ablation bench only.
	KeepBitfieldPredicates bool
}

// Predicate is one must-not-alias fact derived from a π pair of a full
// expression: the locations computed by the two lvalue expressions cannot
// alias in any evaluation, on any initial state, if the program is
// UB-free.
type Predicate struct {
	E1, E2 ast.Expr
	// Calls lists the names of functions called anywhere inside E1 or E2
	// (LLVM staging: such predicates are only exposed to the AA subsystem
	// once the callees are known readnone).
	Calls []string
	// ImpureCall marks that at least one of Calls is not known pure.
	ImpureCall bool
	// BothBitfields marks predicates dropped for soundness under bitfield
	// widening (paper §4.2.3).
	BothBitfields bool
	// Pos is the position of the full expression that generated this
	// predicate.
	Pos token.Pos
}

func (p Predicate) String() string {
	return fmt.Sprintf("must-not-alias(%s, %s)", ast.ExprString(p.E1), ast.ExprString(p.E2))
}

// Result holds the analysis of one full expression. The judgement sets
// are not kept: Sets rebuilds them on demand.
type Result struct {
	Root ast.Expr
	// HasUnseqSideEffect reports whether the full expression contains at
	// least one unsequenced side effect paired with a conflicting-access
	// candidate, i.e. generates at least one predicate before filtering.
	HasUnseqSideEffect bool

	an *Analyzer
}

// Analyzer runs the Fig. 1 rules. Funcs supplies defined functions for
// purity lookups (may be nil: all calls are then impure). An Analyzer is
// read-only after New, so goroutines may share it.
type Analyzer struct {
	cfg   Config
	funcs map[string]*ast.FuncDecl
}

// New creates an Analyzer.
func New(cfg Config, funcs map[string]*ast.FuncDecl) *Analyzer {
	return &Analyzer{cfg: cfg, funcs: funcs}
}

// FuncMap builds the callee lookup map from a translation unit.
func FuncMap(tu *ast.TranslationUnit) map[string]*ast.FuncDecl {
	m := make(map[string]*ast.FuncDecl, len(tu.Funcs))
	for _, f := range tu.Funcs {
		m[f.Name] = f
	}
	return m
}

// AnalyzeExpr analyzes the full expression e.
func (a *Analyzer) AnalyzeExpr(e ast.Expr) *Result {
	sc := getScratch()
	defer putScratch(sc)
	r := &Result{Root: e, an: a}
	a.run(sc, e)
	r.HasUnseqSideEffect = sc.hasPairs()
	return r
}

// Sets returns the judgement of the sub-expression with the given ID,
// rebuilt by analyzing that sub-expression on its own (a node's sets
// depend only on its subtree). The root's ID yields the full
// expression's judgement even when the root is parenthesized; inner
// Paren nodes, nodes under sizeof (never evaluated) and IDs outside the
// expression report false.
func (r *Result) Sets(id int) (Sets, bool) {
	sc := getScratch()
	defer putScratch(sc)
	e := sema.Strip(r.Root)
	if id != r.Root.ID() {
		r.an.run(sc, r.Root)
		e = nil
		for _, nd := range sc.nodes {
			if nd.e.ID() == id {
				e = nd.e
				break
			}
		}
		if e == nil {
			return Sets{}, false
		}
	}
	root := r.an.run(sc, e)
	ids := func(tab []uint64) IDSet {
		s := make(IDSet)
		forEachBit(sc.set(tab, root), func(loc int) { s.Add(sc.nodes[sc.byLoc[loc]].e.ID()) })
		return s
	}
	out := Sets{Omega: ids(sc.omega), Theta: ids(sc.theta), Gamma: ids(sc.gamma), Pi: make(PairSet)}
	sc.eachPair(func(i, j int) { out.Pi.Add(sc.nodes[i].e.ID(), sc.nodes[j].e.ID()) })
	return out, true
}

// Expr returns the node with the given ID anywhere in the full
// expression (Parens and sizeof operands included), or nil.
func (r *Result) Expr(id int) ast.Expr {
	var found ast.Expr
	ast.Walk(r.Root, func(x ast.Expr) {
		if found == nil && x.ID() == id {
			found = x
		}
	})
	return found
}

// forEachBit calls fn with every member of s, ascending.
func forEachBit(s []uint64, fn func(int)) {
	for k, word := range s {
		for ; word != 0; word &= word - 1 {
			fn(k*64 + bits.TrailingZeros64(word))
		}
	}
}

// hasPairs reports whether the analyzed root's π is non-empty.
func (sc *scratch) hasPairs() bool {
	for _, word := range sc.pi {
		if word != 0 {
			return true
		}
	}
	return false
}

// eachPair calls fn with the node indices of every π pair of the
// analyzed root, in PairSet.Sorted order: local numbers ascend with
// expression IDs, so the upper triangle read row by row is sorted.
func (sc *scratch) eachPair(fn func(i, j int)) {
	for k := range len(sc.nodes) {
		row := sc.row(k)
		for w, word := range row {
			if w == k/64 {
				word &^= 1<<(k%64+1) - 1 // only j > k
			} else if w < k/64 {
				continue
			}
			for ; word != 0; word &= word - 1 {
				j := w*64 + bits.TrailingZeros64(word)
				fn(sc.byLoc[k], sc.byLoc[j])
			}
		}
	}
}

// Predicates converts the π set of the analyzed full expression into
// predicates, applying the bitfield filter (§4.2.3) and tagging call
// involvement. Filtered-out predicates are returned too, with their
// filter flags set, so statistics can count them.
func (a *Analyzer) Predicates(r *Result) []Predicate {
	sc := getScratch()
	defer putScratch(sc)
	a.run(sc, r.Root)
	return a.predicates(sc, r.Root)
}

// predicates builds the Predicates of the full expression root, just
// analyzed into sc.
func (a *Analyzer) predicates(sc *scratch, root ast.Expr) []Predicate {
	pairs := 0
	for _, word := range sc.pi {
		pairs += bits.OnesCount64(word)
	}
	if pairs == 0 {
		return nil
	}
	out := make([]Predicate, 0, pairs/2)
	sc.eachPair(func(i, j int) {
		n1, n2 := &sc.nodes[i], &sc.nodes[j]
		p := Predicate{E1: n1.e, E2: n2.e, Pos: root.Pos()}
		if n1.anyCall {
			p.Calls = callNames(n1.e)
		}
		if n2.anyCall {
			p.Calls = append(p.Calls, callNames(n2.e)...)
		}
		for _, c := range p.Calls {
			if a.cfg.AssumeAllCallsImpure || c == "<indirect>" || !a.pureByName(c) {
				p.ImpureCall = true
				break
			}
		}
		if !a.cfg.KeepBitfieldPredicates &&
			sema.IsBitfieldLvalue(n1.e) && sema.IsBitfieldLvalue(n2.e) {
			p.BothBitfields = true
		}
		out = append(out, p)
	})
	return out
}

func (a *Analyzer) pureByName(name string) bool {
	if sema.PureBuiltins[name] {
		return true
	}
	if f, ok := a.funcs[name]; ok && f.PureKnown {
		return f.Pure
	}
	return false
}

// callNames collects the called function names inside e.
func callNames(e ast.Expr) []string {
	var names []string
	ast.Walk(e, func(x ast.Expr) {
		if call, ok := x.(*ast.Call); ok {
			if n := sema.CalleeName(call); n != "" {
				names = append(names, n)
			} else {
				names = append(names, "<indirect>")
			}
		}
	})
	return names
}

// FullExprReport is the per-full-expression analysis outcome used by the
// driver's statistics (Table 5).
type FullExprReport struct {
	Result     *Result
	Predicates []Predicate
	// ContainsCall reports whether the full expression contains any
	// function call (sanitizer statistics: >98.5% of predicates have
	// none).
	ContainsCall bool
}

// AnalyzeFunction analyzes every full expression in f's body.
func (a *Analyzer) AnalyzeFunction(f *ast.FuncDecl) []FullExprReport {
	sc := getScratch()
	defer putScratch(sc)
	return a.analyzeFunction(sc, f, nil)
}

// AnalyzeUnit analyzes every function in tu and the global initializers.
func (a *Analyzer) AnalyzeUnit(tu *ast.TranslationUnit) []FullExprReport {
	sc := getScratch()
	defer putScratch(sc)
	var out []FullExprReport
	for _, g := range tu.Globals {
		if g.Init != nil {
			out = append(out, a.report(sc, g.Init, &Result{}))
		}
	}
	for _, f := range tu.Funcs {
		out = a.analyzeFunction(sc, f, out)
	}
	return out
}

// analyzeFunction appends the reports of f's full expressions to out.
func (a *Analyzer) analyzeFunction(sc *scratch, f *ast.FuncDecl, out []FullExprReport) []FullExprReport {
	if f.Body == nil {
		return out
	}
	exprs := ast.FullExprs(f.Body)
	results := make([]Result, len(exprs))
	out = slices.Grow(out, len(exprs))
	for i, e := range exprs {
		out = append(out, a.report(sc, e, &results[i]))
	}
	return out
}

// report analyzes the full expression e into r and builds its report.
func (a *Analyzer) report(sc *scratch, e ast.Expr, r *Result) FullExprReport {
	root := a.run(sc, e)
	*r = Result{Root: e, HasUnseqSideEffect: sc.hasPairs(), an: a}
	rep := FullExprReport{Result: r, ContainsCall: root >= 0 && sc.nodes[root].anyCall}
	if r.HasUnseqSideEffect {
		rep.Predicates = a.predicates(sc, e)
	}
	return rep
}

// AnalyzeUnitJobs is AnalyzeUnit; jobs is ignored. On bitsets a unit's
// analysis takes a few hundred microseconds, and fanning its functions
// out across goroutines no longer beat the sequential walk.
func (a *Analyzer) AnalyzeUnitJobs(tu *ast.TranslationUnit, jobs int) []FullExprReport {
	return a.AnalyzeUnit(tu)
}
