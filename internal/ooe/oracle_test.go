package ooe

// The map-based Fig. 1 rules: every set a fresh Go map, every rule
// written out literally. The bitset analysis must agree with them on
// every sub-expression (CheckOracle); they exist only as that oracle.

import (
	"fmt"
	"slices"

	"repro/internal/ast"
	"repro/internal/sema"
	"repro/internal/token"
)

// oracle runs the map-based rules under an Analyzer's configuration.
type oracle struct {
	cfg   Config
	funcs map[string]*ast.FuncDecl
}

// oracleResult is one full expression's map-based analysis: the sets of
// every evaluated sub-expression and every node by ID.
type oracleResult struct {
	Root               ast.Expr
	ByID               map[int]Sets
	Exprs              map[int]ast.Expr
	HasUnseqSideEffect bool
}

func (a *oracle) analyzeExpr(e ast.Expr) *oracleResult {
	r := &oracleResult{
		Root:  e,
		ByID:  make(map[int]Sets),
		Exprs: make(map[int]ast.Expr),
	}
	ast.Walk(e, func(x ast.Expr) { r.Exprs[x.ID()] = x })
	a.visit(e, r)
	root := r.ByID[sema.Strip(e).ID()]
	r.ByID[e.ID()] = root // Paren roots share the inner judgement
	r.HasUnseqSideEffect = len(root.Pi) > 0
	return r
}

func (a *oracle) predicates(r *oracleResult) []Predicate {
	root := r.ByID[sema.Strip(r.Root).ID()]
	var out []Predicate
	for _, pair := range root.Pi.Sorted() {
		e1, e2 := r.Exprs[pair.A], r.Exprs[pair.B]
		if e1 == nil || e2 == nil {
			continue
		}
		p := Predicate{E1: e1, E2: e2, Pos: r.Root.Pos()}
		p.Calls = append(callNames(e1), callNames(e2)...)
		for _, c := range p.Calls {
			if a.cfg.AssumeAllCallsImpure {
				p.ImpureCall = true
				break
			}
			if c == "<indirect>" || !(&Analyzer{cfg: a.cfg, funcs: a.funcs}).pureByName(c) {
				p.ImpureCall = true
				break
			}
		}
		if !a.cfg.KeepBitfieldPredicates &&
			sema.IsBitfieldLvalue(e1) && sema.IsBitfieldLvalue(e2) {
			p.BothBitfields = true
		}
		out = append(out, p)
	}
	return out
}

// CheckOracle analyzes the full expression e with an and with the
// map-based oracle under the same configuration and reports the first
// difference: any sub-expression's ω/θ/γ/π (and which IDs have sets at
// all), Expr by ID, HasUnseqSideEffect, ContainsCall, and the Predicates
// list in order with every field, from both AnalyzeFunction's report
// path and the exported Predicates.
func CheckOracle(an *Analyzer, e ast.Expr) error {
	o := (&oracle{cfg: an.cfg, funcs: an.funcs}).analyzeExpr(e)
	r := an.AnalyzeExpr(e)
	what := func(format string, args ...any) error {
		return fmt.Errorf("%s: %s: %s", e.Pos(), ast.ExprString(e), fmt.Sprintf(format, args...))
	}
	if r.HasUnseqSideEffect != o.HasUnseqSideEffect {
		return what("HasUnseqSideEffect = %v, oracle %v", r.HasUnseqSideEffect, o.HasUnseqSideEffect)
	}
	for id, x := range o.Exprs {
		if got := r.Expr(id); got != x {
			return what("Expr(%d) = %v, oracle %v", id, got, x)
		}
		got, ok := r.Sets(id)
		want, wok := o.ByID[id]
		if ok != wok {
			return what("Sets(%d) reported %v, oracle %v", id, ok, wok)
		}
		if !ok {
			continue
		}
		if !got.Omega.Equal(want.Omega) || !got.Theta.Equal(want.Theta) ||
			!got.Gamma.Equal(want.Gamma) || !got.Pi.Equal(want.Pi) {
			return what("sets of #%d %s: ω=%v θ=%v γ=%v π=%v, oracle ω=%v θ=%v γ=%v π=%v",
				id, ast.ExprString(x), got.Omega, got.Theta, got.Gamma, got.Pi,
				want.Omega, want.Theta, want.Gamma, want.Pi)
		}
	}
	if _, ok := r.Sets(-1); ok {
		return what("Sets(-1) reported true")
	}
	sc := getScratch()
	rep := an.report(sc, e, &Result{})
	putScratch(sc)
	if rep.ContainsCall != containsAnyCall(e) {
		return what("ContainsCall = %v, oracle %v", rep.ContainsCall, !rep.ContainsCall)
	}
	if rep.Result.HasUnseqSideEffect != o.HasUnseqSideEffect {
		return what("report HasUnseqSideEffect = %v, oracle %v", rep.Result.HasUnseqSideEffect, o.HasUnseqSideEffect)
	}
	want := (&oracle{cfg: an.cfg, funcs: an.funcs}).predicates(o)
	for _, got := range [][]Predicate{rep.Predicates, an.Predicates(r)} {
		if len(got) != len(want) {
			return what("%d predicates, oracle %d", len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.E1 != w.E1 || g.E2 != w.E2 || !slices.Equal(g.Calls, w.Calls) ||
				g.ImpureCall != w.ImpureCall || g.BothBitfields != w.BothBitfields || g.Pos != w.Pos {
				return what("predicate %d = %+v, oracle %+v", i, g, w)
			}
		}
	}
	return nil
}

// nabla implements ∇(S): keep only expressions that evaluate to non-array
// lvalues.
func nabla(exprs ...ast.Expr) IDSet {
	out := make(IDSet)
	for _, e := range exprs {
		e = sema.Strip(e)
		if sema.IsNonArrayLvalue(e) {
			out.Add(e.ID())
		}
	}
	return out
}

// containsImpureCall reports whether e's subtree contains a function call
// not known to be pure (readnone).
func (a *oracle) containsImpureCall(e ast.Expr) bool {
	impure := false
	ast.Walk(e, func(x ast.Expr) {
		if impure {
			return
		}
		if call, ok := x.(*ast.Call); ok {
			if a.cfg.AssumeAllCallsImpure || !sema.CallIsPure(call, a.funcs) {
				impure = true
			}
		}
	})
	return impure
}

// containsAnyCall reports whether e's subtree contains any call at all.
func containsAnyCall(e ast.Expr) bool {
	found := false
	ast.Walk(e, func(x ast.Expr) {
		if _, ok := x.(*ast.Call); ok {
			found = true
		}
	})
	return found
}

// visit computes sets bottom-up and records them in r.
func (a *oracle) visit(e ast.Expr, r *oracleResult) Sets {
	if e == nil {
		return emptySets()
	}
	e = sema.Strip(e)
	s := a.compute(e, r)
	// The impure-fun-call overriding rule (paper eq. impure-fun-call):
	// if any operand contains an impure function call, the operator adds
	// no new π pairs — π is restricted to the union of the operands' πs.
	if len(s.Pi) > 0 {
		if opPi := a.operandPiUnion(e, r); opPi != nil {
			restricted := make(PairSet)
			for p := range s.Pi {
				if _, ok := opPi[p]; ok {
					restricted[p] = struct{}{}
				}
			}
			s.Pi = restricted
		}
	}
	r.ByID[e.ID()] = s
	return s
}

// operandPiUnion returns the union of operand π sets if the impure-call
// override applies to e, or nil if it does not apply.
func (a *oracle) operandPiUnion(e ast.Expr, r *oracleResult) PairSet {
	operands := directOperands(e)
	applies := false
	for _, op := range operands {
		if op != nil && a.containsImpureCall(op) {
			applies = true
			break
		}
	}
	if !applies {
		return nil
	}
	union := make(PairSet)
	for _, op := range operands {
		if op == nil {
			continue
		}
		for p := range r.ByID[sema.Strip(op).ID()].Pi {
			union[p] = struct{}{}
		}
	}
	return union
}

// directOperands lists e's immediate operand expressions.
func directOperands(e ast.Expr) []ast.Expr {
	switch x := sema.Strip(e).(type) {
	case *ast.Unary:
		return []ast.Expr{x.X}
	case *ast.Postfix:
		return []ast.Expr{x.X}
	case *ast.Binary:
		return []ast.Expr{x.L, x.R}
	case *ast.Assign:
		return []ast.Expr{x.L, x.R}
	case *ast.Comma:
		return []ast.Expr{x.L, x.R}
	case *ast.Cond:
		return []ast.Expr{x.C, x.T, x.F}
	case *ast.Index:
		return []ast.Expr{x.X, x.I}
	case *ast.Member:
		return []ast.Expr{x.X}
	case *ast.Call:
		ops := []ast.Expr{x.Fun}
		for _, arg := range x.Args {
			ops = append(ops, arg)
		}
		return ops
	case *ast.Cast:
		return []ast.Expr{x.X}
	case *ast.SizeofExpr:
		return nil // operand is unevaluated
	case *ast.InitList:
		return x.Elems
	}
	return nil
}

// compute applies the Fig. 1 rule for e's top-level operator.
func (a *oracle) compute(e ast.Expr, r *oracleResult) Sets {
	switch x := e.(type) {
	case *ast.Ident, *ast.IntLit, *ast.FloatLit, *ast.CharLit, *ast.StringLit:
		// (const / var): all empty. Decay is charged to the consumer.
		return emptySets()

	case *ast.Binary:
		switch x.Op {
		case token.AndAnd, token.OrOr:
			// (binop-logical): only the first operand surely evaluates;
			// a sequence point follows it, so γ is cleared.
			s1 := a.visit(x.L, r)
			a.visit(x.R, r) // still analyzed for nested judgements
			out := Sets{
				Omega: Union(s1.Omega, nabla(x.L)),
				Theta: Union(s1.Theta),
				Gamma: make(IDSet),
				Pi:    UnionPairs(s1.Pi, Cross(s1.Gamma, nabla(x.L))),
			}
			if a.cfg.NoGammaClear {
				out.Gamma = Union(s1.Gamma)
			}
			return out
		default:
			// (binop-unseq).
			s1 := a.visit(x.L, r)
			s2 := a.visit(x.R, r)
			return Sets{
				Omega: Union(s1.Omega, s2.Omega, nabla(x.L, x.R)),
				Theta: Union(s1.Theta, s2.Theta),
				Gamma: Union(s1.Gamma, s2.Gamma),
				Pi: UnionPairs(s1.Pi, s2.Pi,
					Cross(Union(s1.Omega, nabla(x.L)), s2.Theta),
					Cross(s1.Theta, Union(s2.Omega, nabla(x.R))),
					Cross(s1.Theta, s2.Theta),
					Cross(s1.Gamma, nabla(x.L)),
					Cross(s2.Gamma, nabla(x.R))),
			}
		}

	case *ast.Unary:
		switch x.Op {
		case token.Amp:
			// (address-of): pass-through, no decay of the operand.
			return a.visit(x.X, r)
		case token.Star:
			// (deref).
			s := a.visit(x.X, r)
			return Sets{
				Omega: Union(s.Omega, nabla(x.X)),
				Theta: Union(s.Theta),
				Gamma: Union(s.Gamma),
				Pi:    UnionPairs(s.Pi, Cross(s.Gamma, nabla(x.X))),
			}
		case token.Inc, token.Dec:
			// (pre/post-inc/dec): the operand lvalue is read, written, and
			// its side effect is pending; it must not alias γ of the
			// operand's own evaluation.
			s := a.visit(x.X, r)
			op := sema.Strip(x.X)
			self := NewIDSet(op.ID())
			return Sets{
				Omega: Union(s.Omega, self),
				Theta: Union(s.Theta, self),
				Gamma: Union(s.Gamma, self),
				Pi:    UnionPairs(s.Pi, Cross(self, s.Gamma)),
			}
		default:
			// (unary-op): - ! ~ decay their operand.
			s := a.visit(x.X, r)
			return Sets{
				Omega: Union(s.Omega, nabla(x.X)),
				Theta: Union(s.Theta),
				Gamma: Union(s.Gamma),
				Pi:    UnionPairs(s.Pi, Cross(s.Gamma, nabla(x.X))),
			}
		}

	case *ast.Postfix:
		// (pre/post-inc/dec), postfix form: same sets as prefix.
		s := a.visit(x.X, r)
		op := sema.Strip(x.X)
		self := NewIDSet(op.ID())
		return Sets{
			Omega: Union(s.Omega, self),
			Theta: Union(s.Theta, self),
			Gamma: Union(s.Gamma, self),
			Pi:    UnionPairs(s.Pi, Cross(self, s.Gamma)),
		}

	case *ast.Assign:
		s1 := a.visit(x.L, r)
		s2 := a.visit(x.R, r)
		l := sema.Strip(x.L)
		e1 := NewIDSet(l.ID())
		if x.Op == token.Assign {
			// (assignment): e1 does not decay; e2 does. The references of
			// either operand are allowed to alias the assignment's own
			// side effect (remove_refs), so e1 is paired only with γ1∪γ2
			// and e2's decay only with γ2.
			return Sets{
				Omega: Union(s1.Omega, s2.Omega, nabla(x.R)),
				Theta: Union(s1.Theta, s2.Theta, e1),
				Gamma: Union(s1.Gamma, s2.Gamma, e1),
				Pi: UnionPairs(s1.Pi, s2.Pi,
					Cross(s1.Omega, s2.Theta),
					Cross(s1.Theta, Union(s2.Omega, nabla(x.R))),
					Cross(s1.Theta, s2.Theta),
					Cross(e1, Union(s1.Gamma, s2.Gamma)),
					Cross(nabla(x.R), s2.Gamma)),
			}
		}
		// (compound-assignment): e1 also decays (read-modify-write).
		return Sets{
			Omega: Union(s1.Omega, s2.Omega, nabla(x.L, x.R)),
			Theta: Union(s1.Theta, s2.Theta, e1),
			Gamma: Union(s1.Gamma, s2.Gamma, e1),
			Pi: UnionPairs(s1.Pi, s2.Pi,
				Cross(Union(s1.Omega, e1), s2.Theta),
				Cross(s1.Theta, Union(s2.Omega, nabla(x.R))),
				Cross(s1.Theta, s2.Theta),
				Cross(e1, s1.Gamma),
				Cross(nabla(x.R), s2.Gamma)),
		}

	case *ast.Comma:
		// (comma): sequence point between operands; γ1 is cleared but γ2
		// survives (e2 evaluates after the clear).
		s1 := a.visit(x.L, r)
		s2 := a.visit(x.R, r)
		gamma := Union(s2.Gamma)
		if a.cfg.NoGammaClear {
			gamma = Union(s1.Gamma, s2.Gamma)
		}
		return Sets{
			Omega: Union(s1.Omega, s2.Omega, nabla(x.L, x.R)),
			Theta: Union(s1.Theta, s2.Theta),
			Gamma: gamma,
			Pi: UnionPairs(s1.Pi, s2.Pi,
				Cross(s1.Gamma, nabla(x.L)),
				Cross(s2.Gamma, nabla(x.R))),
		}

	case *ast.Cond:
		// (ternary): only the condition surely evaluates.
		s1 := a.visit(x.C, r)
		a.visit(x.T, r)
		a.visit(x.F, r)
		out := Sets{
			Omega: Union(s1.Omega, nabla(x.C)),
			Theta: Union(s1.Theta),
			Gamma: make(IDSet),
			Pi:    UnionPairs(s1.Pi, Cross(s1.Gamma, nabla(x.C))),
		}
		if a.cfg.NoGammaClear {
			out.Gamma = Union(s1.Gamma)
		}
		return out

	case *ast.Index:
		// e1[e2] is *(e1 + e2): binop-unseq on the operands, then deref of
		// an rvalue sum (whose ∇ is empty).
		s1 := a.visit(x.X, r)
		s2 := a.visit(x.I, r)
		return Sets{
			Omega: Union(s1.Omega, s2.Omega, nabla(x.X, x.I)),
			Theta: Union(s1.Theta, s2.Theta),
			Gamma: Union(s1.Gamma, s2.Gamma),
			Pi: UnionPairs(s1.Pi, s2.Pi,
				Cross(Union(s1.Omega, nabla(x.X)), s2.Theta),
				Cross(s1.Theta, Union(s2.Omega, nabla(x.I))),
				Cross(s1.Theta, s2.Theta),
				Cross(s1.Gamma, nabla(x.X)),
				Cross(s2.Gamma, nabla(x.I))),
		}

	case *ast.Member:
		if x.Arrow {
			// s->fld is (*s).fld: deref of s, then struct-field
			// pass-through.
			s := a.visit(x.X, r)
			return Sets{
				Omega: Union(s.Omega, nabla(x.X)),
				Theta: Union(s.Theta),
				Gamma: Union(s.Gamma),
				Pi:    UnionPairs(s.Pi, Cross(s.Gamma, nabla(x.X))),
			}
		}
		// (struct-field): pass-through (the aggregate lvalue itself does
		// not decay; the field lvalue's decay is charged to the consumer).
		return a.visit(x.X, r)

	case *ast.Call:
		// (fun-call): designator and arguments are mutually unsequenced;
		// the sequence point before the call clears γ.
		operands := append([]ast.Expr{x.Fun}, x.Args...)
		sets := make([]Sets, len(operands))
		for i, op := range operands {
			sets[i] = a.visit(op, r)
		}
		out := emptySets()
		for i, op := range operands {
			out.Omega = Union(out.Omega, sets[i].Omega, nabla(op))
			out.Theta = Union(out.Theta, sets[i].Theta)
			out.Pi = UnionPairs(out.Pi, sets[i].Pi, Cross(sets[i].Gamma, nabla(op)))
		}
		for i := range operands {
			for j := range operands {
				if i == j {
					continue
				}
				out.Pi = UnionPairs(out.Pi,
					Cross(sets[i].Theta, sets[j].Theta),
					Cross(Union(sets[i].Omega, nabla(operands[i])), sets[j].Theta),
					Cross(sets[i].Theta, Union(sets[j].Omega, nabla(operands[j]))))
			}
		}
		if a.cfg.NoGammaClear {
			for i := range operands {
				out.Gamma = Union(out.Gamma, sets[i].Gamma)
			}
		}
		return out

	case *ast.Cast:
		// Casting decays the operand in an rvalue context: unary-op shape.
		s := a.visit(x.X, r)
		return Sets{
			Omega: Union(s.Omega, nabla(x.X)),
			Theta: Union(s.Theta),
			Gamma: Union(s.Gamma),
			Pi:    UnionPairs(s.Pi, Cross(s.Gamma, nabla(x.X))),
		}

	case *ast.SizeofExpr:
		// (sizeof): the operand is not evaluated.
		return emptySets()

	case *ast.InitList:
		// Initializer-list expressions are indeterminately sequenced
		// (C17 6.7.9p23): sequenced, order unspecified — no races, and a
		// sequence point separates them from what follows.
		out := emptySets()
		for _, el := range x.Elems {
			s := a.visit(el, r)
			out.Omega = Union(out.Omega, s.Omega, nabla(el))
			out.Theta = Union(out.Theta, s.Theta)
			out.Pi = UnionPairs(out.Pi, s.Pi, Cross(s.Gamma, nabla(el)))
		}
		return out
	}
	return emptySets()
}

// Union returns a new set holding every element of the operands.
func Union(sets ...IDSet) IDSet {
	out := make(IDSet)
	for _, s := range sets {
		for id := range s {
			out[id] = struct{}{}
		}
	}
	return out
}

// UnionPairs returns a new pair set holding every pair of the operands.
func UnionPairs(sets ...PairSet) PairSet {
	out := make(PairSet)
	for _, s := range sets {
		for p := range s {
			out[p] = struct{}{}
		}
	}
	return out
}

// Cross implements the paper's χ(s1, s2): the cartesian product as
// unordered pairs. Self-pairs (a,a) are never produced — an ID denotes a
// single evaluation and cannot race with itself.
func Cross(s1, s2 IDSet) PairSet {
	out := make(PairSet)
	for a := range s1 {
		for b := range s2 {
			if a == b {
				continue
			}
			out.Add(a, b)
		}
	}
	return out
}

func emptySets() Sets {
	return Sets{
		Omega: make(IDSet),
		Theta: make(IDSet),
		Gamma: make(IDSet),
		Pi:    make(PairSet),
	}
}
