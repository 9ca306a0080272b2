package ooe

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/ast"
	"repro/internal/sema"
	"repro/internal/token"
)

// The Fig. 1 rules run on bitsets. Each full expression's non-Paren
// nodes get dense local numbers 0..n-1 in ascending expression-ID order;
// ω, θ and γ are bitsets of ⌈n/64⌉ words over those numbers, one per
// node. π is one symmetric n×n bit matrix per full expression: row k
// holds the numbers paired with k. Every pair a rule adds lies inside
// the subtree of the node that adds it, and sibling subtrees are
// disjoint, so after a node is computed the matrix restricted to its
// subtree is exactly that node's π — the operands' πs are already there
// and a rule only ORs its new pairs in. The rules that drop an operand's
// π (the unevaluated arms of &&, || and ?:) clear that operand's rows.
// Reading the root's rows in row-major order yields PairSet.Sorted order.

// node is one non-Paren sub-expression of the full expression under
// analysis, stored in post-order, so a node's subtree is the index
// range [lo, its own index] and its operands are computed before it.
type node struct {
	e   ast.Expr // Parens stripped
	loc int      // local number: rank of e.ID() within the full expression
	lo  int      // post-order index of the subtree's first node
	// k0:k1 indexes the operand node indices (-1 for a nil operand) in
	// scratch.kids, in directOperands order.
	k0, k1 int
	// lv reports that e evaluates to a non-array lvalue (∇ keeps it).
	lv bool
	// impure and anyCall report an impure call or any call in e's subtree,
	// with ast.Walk's reach (unevaluated sizeof operands included).
	impure, anyCall bool
	// override: an operand contains an impure call, so the rule for e
	// adds no π pairs of its own (paper eq. impure-fun-call).
	override bool
}

type ranked struct{ id, i int }

// scratch holds one full expression's numbering and bit tables. It is
// pooled and reused across expressions.
type scratch struct {
	nodes []node
	kids  []int
	stack []int
	rank  []ranked
	byLoc []int // local number -> node index
	w     int   // words per bitset
	// omega, theta and gamma hold w words per node index; pi holds w
	// words per local number.
	omega, theta, gamma, pi []uint64
	zero, tmp               []uint64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch   { return scratchPool.Get().(*scratch) }
func putScratch(sc *scratch) { scratchPool.Put(sc) }

// run analyzes the full expression e into sc and returns the node index
// of its (Paren-stripped) root, or -1 for a nil e.
func (a *Analyzer) run(sc *scratch, e ast.Expr) int {
	sc.nodes, sc.kids, sc.stack = sc.nodes[:0], sc.kids[:0], sc.stack[:0]
	root := a.number(sc, e)
	n := len(sc.nodes)
	sc.rankNodes()
	w := (n + 63) / 64
	sc.w = w
	sc.omega = grow(sc.omega, n*w)
	sc.theta = grow(sc.theta, n*w)
	sc.gamma = grow(sc.gamma, n*w)
	sc.pi = grow(sc.pi, n*w)
	sc.zero = grow(sc.zero, w)
	sc.tmp = grow(sc.tmp, 2*w)
	clear(sc.zero)
	clear(sc.pi)
	for i := range n {
		a.compute(sc, i)
	}
	return root
}

// grow returns s resliced to n words, reallocating only when too small.
func grow(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n, n+n/2)
	}
	return s[:n]
}

// number appends e's subtree to sc.nodes in post-order and returns e's
// node index (-1 for nil). Parens are transparent.
func (a *Analyzer) number(sc *scratch, e ast.Expr) int {
	if e == nil {
		return -1
	}
	e = sema.Strip(e)
	nd := node{e: e, lo: len(sc.nodes)}
	base := len(sc.stack)
	push := func(x ast.Expr) { sc.stack = append(sc.stack, a.number(sc, x)) }
	switch x := e.(type) {
	case *ast.Unary:
		push(x.X)
	case *ast.Postfix:
		push(x.X)
	case *ast.Binary:
		push(x.L)
		push(x.R)
	case *ast.Assign:
		push(x.L)
		push(x.R)
	case *ast.Comma:
		push(x.L)
		push(x.R)
	case *ast.Cond:
		push(x.C)
		push(x.T)
		push(x.F)
	case *ast.Index:
		push(x.X)
		push(x.I)
	case *ast.Member:
		push(x.X)
	case *ast.Call:
		push(x.Fun)
		for _, arg := range x.Args {
			push(arg)
		}
		nd.anyCall = true
		nd.impure = a.cfg.AssumeAllCallsImpure || !sema.CallIsPure(x, a.funcs)
	case *ast.Cast:
		push(x.X)
	case *ast.SizeofExpr:
		// The operand is not evaluated, so it gets no node, but a call
		// inside it still counts for containment, as under ast.Walk.
		nd.impure, nd.anyCall = a.callsIn(x.X)
	case *ast.InitList:
		for _, el := range x.Elems {
			push(el)
		}
	}
	nd.k0 = len(sc.kids)
	for _, k := range sc.stack[base:] {
		sc.kids = append(sc.kids, k)
		if k >= 0 {
			kid := &sc.nodes[k]
			nd.override = nd.override || kid.impure
			nd.impure = nd.impure || kid.impure
			nd.anyCall = nd.anyCall || kid.anyCall
		}
	}
	nd.k1 = len(sc.kids)
	sc.stack = sc.stack[:base]
	nd.lv = sema.IsNonArrayLvalue(e)
	sc.nodes = append(sc.nodes, nd)
	return len(sc.nodes) - 1
}

// callsIn reports whether e's subtree contains an impure call and
// whether it contains any call at all.
func (a *Analyzer) callsIn(e ast.Expr) (impure, any bool) {
	ast.Walk(e, func(x ast.Expr) {
		if call, ok := x.(*ast.Call); ok {
			any = true
			impure = impure || a.cfg.AssumeAllCallsImpure || !sema.CallIsPure(call, a.funcs)
		}
	})
	return impure, any
}

// rankNodes assigns local numbers in ascending expression-ID order. The
// parser numbers operands before their operator, so post-order is
// usually sorted already; initializer lists are the common exception.
func (sc *scratch) rankNodes() {
	n := len(sc.nodes)
	sc.rank = sc.rank[:0]
	sorted := true
	for i := range sc.nodes {
		id := sc.nodes[i].e.ID()
		if i > 0 && id < sc.rank[i-1].id {
			sorted = false
		}
		sc.rank = append(sc.rank, ranked{id: id, i: i})
	}
	if !sorted {
		slices.SortFunc(sc.rank, func(x, y ranked) int { return cmp.Compare(x.id, y.id) })
	}
	if cap(sc.byLoc) < n {
		sc.byLoc = make([]int, n, n+n/2)
	}
	sc.byLoc = sc.byLoc[:n]
	for k, r := range sc.rank {
		sc.nodes[r.i].loc = k
		sc.byLoc[k] = r.i
	}
}

// set returns node i's words of one of the ω/θ/γ tables; a nil operand
// (i < 0) has the empty set.
func (sc *scratch) set(tab []uint64, i int) []uint64 {
	if i < 0 {
		return sc.zero
	}
	return tab[i*sc.w : (i+1)*sc.w : (i+1)*sc.w]
}

func (sc *scratch) row(loc int) []uint64 {
	return sc.pi[loc*sc.w : (loc+1)*sc.w : (loc+1)*sc.w]
}

// nabla is ∇ of operand i: its local number if it is a non-array
// lvalue, else -1 (the empty set).
func (sc *scratch) nabla(i int) int {
	if i < 0 || !sc.nodes[i].lv {
		return -1
	}
	return sc.nodes[i].loc
}

// self is the operand's own local number, ∇ or not (inc/dec and
// assignment targets).
func (sc *scratch) self(i int) int {
	if i < 0 {
		return -1
	}
	return sc.nodes[i].loc
}

// with returns s ∪ {b} in temporary k (0 or 1).
func (sc *scratch) with(k int, s []uint64, b int) []uint64 {
	t := sc.tmp[k*sc.w : (k+1)*sc.w : (k+1)*sc.w]
	copy(t, s)
	setBit(t, b)
	return t
}

func setBit(s []uint64, b int) {
	if b >= 0 {
		s[b/64] |= 1 << (b % 64)
	}
}

func or(dst []uint64, srcs ...[]uint64) {
	for _, s := range srcs {
		for k := range dst {
			dst[k] |= s[k]
		}
	}
}

// cross adds χ(s1, s2) to π: every pair (a, b) with a ∈ s1, b ∈ s2,
// a ≠ b, in both rows.
func (sc *scratch) cross(s1, s2 []uint64) {
	sc.orRows(s1, s2)
	sc.orRows(s2, s1)
}

// orRows ORs set into the row of every member of over, minus the
// member itself (no self-pairs).
func (sc *scratch) orRows(over, set []uint64) {
	for k, word := range over {
		for ; word != 0; word &= word - 1 {
			a := k*64 + bits.TrailingZeros64(word)
			r := sc.row(a)
			or(r, set)
			r[k] &^= 1 << (a % 64)
		}
	}
}

// crossBit adds χ(s, {b}) to π.
func (sc *scratch) crossBit(s []uint64, b int) {
	if b < 0 {
		return
	}
	r := sc.row(b)
	for k, word := range s {
		r[k] |= word
		for ; word != 0; word &= word - 1 {
			a := k*64 + bits.TrailingZeros64(word)
			setBit(sc.row(a), b)
		}
	}
	r[b/64] &^= 1 << (b % 64) // no self-pair, even when b ∈ s
}

// dropPi clears the rows of node i's subtree: the rule consuming i does
// not keep i's π.
func (sc *scratch) dropPi(i int) {
	if i < 0 {
		return
	}
	for j := sc.nodes[i].lo; j <= i; j++ {
		clear(sc.row(sc.nodes[j].loc))
	}
}

// compute applies the Fig. 1 rule for node i's top-level operator; its
// operands are already computed.
func (a *Analyzer) compute(sc *scratch, i int) {
	nd := &sc.nodes[i]
	O, T, G := sc.set(sc.omega, i), sc.set(sc.theta, i), sc.set(sc.gamma, i)
	clear(O)
	clear(T)
	clear(G)
	kids := sc.kids[nd.k0:nd.k1]
	pi := !nd.override
	o := func(k int) []uint64 { return sc.set(sc.omega, k) }
	t := func(k int) []uint64 { return sc.set(sc.theta, k) }
	g := func(k int) []uint64 { return sc.set(sc.gamma, k) }

	// unseq is (binop-unseq) over operands l and r, also used for e1[e2].
	unseq := func(l, r int) {
		nl, nr := sc.nabla(l), sc.nabla(r)
		or(O, o(l), o(r))
		setBit(O, nl)
		setBit(O, nr)
		or(T, t(l), t(r))
		or(G, g(l), g(r))
		if pi {
			sc.cross(sc.with(0, o(l), nl), t(r))
			sc.cross(t(l), sc.with(1, o(r), nr))
			sc.cross(t(l), t(r))
			sc.crossBit(g(l), nl)
			sc.crossBit(g(r), nr)
		}
	}
	// decay is the unary-op shape: the operand decays and its pending
	// side effects must not alias it.
	decay := func(x int) {
		nx := sc.nabla(x)
		or(O, o(x))
		setBit(O, nx)
		or(T, t(x))
		or(G, g(x))
		if pi {
			sc.crossBit(g(x), nx)
		}
	}
	// passThrough shares the operand's judgement.
	passThrough := func(x int) {
		or(O, o(x))
		or(T, t(x))
		or(G, g(x))
	}
	// incDec is (pre/post-inc/dec): the operand lvalue is read, written,
	// and its side effect is pending; it must not alias the operand's own
	// pending side effects.
	incDec := func(x int) {
		s := sc.self(x)
		or(O, o(x))
		setBit(O, s)
		or(T, t(x))
		setBit(T, s)
		or(G, g(x))
		setBit(G, s)
		if pi {
			sc.crossBit(g(x), s)
		}
	}
	// firstOnly is the shape of && || and ?: — only the first operand
	// surely evaluates, a sequence point follows it, and the other
	// operands' judgements are dropped.
	firstOnly := func(c int, rest []int) {
		nc := sc.nabla(c)
		or(O, o(c))
		setBit(O, nc)
		or(T, t(c))
		if a.cfg.NoGammaClear {
			or(G, g(c))
		}
		for _, k := range rest {
			sc.dropPi(k)
		}
		if pi {
			sc.crossBit(g(c), nc)
		}
	}

	switch x := nd.e.(type) {
	case *ast.Binary:
		if x.Op == token.AndAnd || x.Op == token.OrOr {
			// (binop-logical).
			firstOnly(kids[0], kids[1:])
		} else {
			// (binop-unseq).
			unseq(kids[0], kids[1])
		}

	case *ast.Unary:
		switch x.Op {
		case token.Amp:
			// (address-of): pass-through, no decay of the operand.
			passThrough(kids[0])
		case token.Inc, token.Dec:
			incDec(kids[0])
		default:
			// (deref) and (unary-op): - ! ~ decay their operand.
			decay(kids[0])
		}

	case *ast.Postfix:
		incDec(kids[0])

	case *ast.Assign:
		l, r := kids[0], kids[1]
		e1, nr := sc.self(l), sc.nabla(r)
		or(O, o(l), o(r))
		setBit(O, nr)
		or(T, t(l), t(r))
		setBit(T, e1)
		or(G, g(l), g(r))
		setBit(G, e1)
		if x.Op == token.Assign {
			// (assignment): e1 does not decay; e2 does. The references of
			// either operand may alias the assignment's own side effect
			// (remove_refs), so e1 is paired only with γ1∪γ2 and e2's
			// decay only with γ2.
			if pi {
				sc.cross(o(l), t(r))
				sc.cross(t(l), sc.with(0, o(r), nr))
				sc.cross(t(l), t(r))
				sc.crossBit(g(l), e1)
				sc.crossBit(g(r), e1)
				sc.crossBit(g(r), nr)
			}
			return
		}
		// (compound-assignment): e1 also decays (read-modify-write).
		setBit(O, sc.nabla(l))
		if pi {
			sc.cross(sc.with(0, o(l), e1), t(r))
			sc.cross(t(l), sc.with(1, o(r), nr))
			sc.cross(t(l), t(r))
			sc.crossBit(g(l), e1)
			sc.crossBit(g(r), nr)
		}

	case *ast.Comma:
		// (comma): sequence point between operands; γ1 is cleared but γ2
		// survives (e2 evaluates after the clear).
		l, r := kids[0], kids[1]
		nl, nr := sc.nabla(l), sc.nabla(r)
		or(O, o(l), o(r))
		setBit(O, nl)
		setBit(O, nr)
		or(T, t(l), t(r))
		or(G, g(r))
		if a.cfg.NoGammaClear {
			or(G, g(l))
		}
		if pi {
			sc.crossBit(g(l), nl)
			sc.crossBit(g(r), nr)
		}

	case *ast.Cond:
		// (ternary): only the condition surely evaluates.
		firstOnly(kids[0], kids[1:])

	case *ast.Index:
		// e1[e2] is *(e1 + e2): binop-unseq on the operands, then deref of
		// an rvalue sum (whose ∇ is empty).
		unseq(kids[0], kids[1])

	case *ast.Member:
		if x.Arrow {
			// s->fld is (*s).fld: deref of s, then struct-field
			// pass-through.
			decay(kids[0])
		} else {
			// (struct-field): pass-through (the field lvalue's decay is
			// charged to the consumer).
			passThrough(kids[0])
		}

	case *ast.Call:
		// (fun-call): designator and arguments are mutually unsequenced;
		// the sequence point before the call clears γ. With Aᵢ = ωᵢ∪∇ᵢ∪θᵢ
		// the cross terms χ(θᵢ,θⱼ) ∪ χ(ωᵢ∪∇ᵢ,θⱼ) ∪ χ(θᵢ,ωⱼ∪∇ⱼ) over
		// i ≠ j are χ(Aᵢ, θⱼ) ∪ χ(Aⱼ, θᵢ) over i < j, accumulated here
		// against prefix unions of A and θ.
		prefA, prefT := sc.tmp[:sc.w:sc.w], sc.tmp[sc.w:2*sc.w:2*sc.w]
		clear(prefA)
		clear(prefT)
		for _, k := range kids {
			nk := sc.nabla(k)
			or(O, o(k))
			setBit(O, nk)
			or(T, t(k))
			if a.cfg.NoGammaClear {
				or(G, g(k))
			}
			if pi {
				sc.crossBit(g(k), nk)
				sc.cross(prefA, t(k))
				sc.cross(prefT, o(k))
				sc.cross(prefT, t(k))
				sc.crossBit(prefT, nk)
			}
			or(prefA, o(k), t(k))
			setBit(prefA, nk)
			or(prefT, t(k))
		}

	case *ast.Cast:
		// Casting decays the operand in an rvalue context: unary-op shape.
		decay(kids[0])

	case *ast.InitList:
		// Initializer-list expressions are indeterminately sequenced
		// (C17 6.7.9p23): sequenced, order unspecified — no races, and a
		// sequence point separates them from what follows.
		for _, k := range kids {
			nk := sc.nabla(k)
			or(O, o(k))
			setBit(O, nk)
			or(T, t(k))
			if pi {
				sc.crossBit(g(k), nk)
			}
		}
	}
	// Identifiers, literals and sizeof (whose operand is unevaluated):
	// all sets empty.
}
