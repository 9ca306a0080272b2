package aa

import (
	"cmp"
	"fmt"
	"math"
	"strings"

	"repro/internal/ir"
)

// UnseqAA is the paper's contribution plugged into the AA chain: it
// answers NoAlias for pointer pairs registered through mustnotalias
// intrinsic instructions (the lowered π predicates of the AST analysis).
//
// Facts are per-value, like LLVM metadata nodes: two query pointers match
// a fact when they resolve (through Convert copies) to the registered
// values, or decompose to GEPs whose bases form a registered pair with
// offsets that keep the accesses disjoint-or-equal-indexed.
type UnseqAA struct {
	// pairs maps a registered pointer pair to the provenance id (the
	// intrinsic's Meta) of the π predicate that asserted it — the
	// attribution optimization remarks report.
	pairs map[[2]ir.Value]int
	// lastMeta is the predicate id behind the most recent NoAlias
	// answer.
	lastMeta int
}

// NewUnseqAA scans fn for mustnotalias intrinsics.
func NewUnseqAA(fn *ir.Func) *UnseqAA {
	u := &UnseqAA{}
	u.Rebuild(fn)
	return u
}

// Rebuild rescans the function (after transforms clone or delete
// intrinsics).
func (u *UnseqAA) Rebuild(fn *ir.Func) {
	u.pairs = make(map[[2]ir.Value]int)
	if fn == nil {
		return
	}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpMustNotAlias || len(in.Args) != 2 {
				continue
			}
			a := resolveCopies(in.Args[0])
			c := resolveCopies(in.Args[1])
			key := normPair(a, c)
			if _, ok := u.pairs[key]; !ok {
				u.pairs[key] = in.Meta
			}
		}
	}
}

// Propagate registers derived facts from interprocedural summaries: at
// every direct call whose callee exports a π pair over two pointer
// parameters (an entry-block fact, so it holds whenever the call
// executes), the corresponding pair of actual arguments must not alias
// in this function either. The derived pair keeps the callee
// predicate's provenance id, so attribution reaches back to the
// original CANT_ALIAS annotation. A no-op without summaries.
func (u *UnseqAA) Propagate(fn *ir.Func, sums *Summaries) {
	if fn == nil || sums == nil {
		return
	}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpCall {
				continue
			}
			fs := sums.ForCall(in)
			if fs == nil {
				continue
			}
			for _, p := range fs.PiPairs {
				if p.I >= len(in.Args) || p.J >= len(in.Args) {
					continue
				}
				a := resolveCopies(in.Args[p.I])
				c := resolveCopies(in.Args[p.J])
				if a == c {
					continue
				}
				key := normPair(a, c)
				if _, ok := u.pairs[key]; !ok {
					u.pairs[key] = p.Meta
				}
			}
		}
	}
}

// LastMeta returns the predicate provenance id behind the most recent
// NoAlias answer.
func (u *UnseqAA) LastMeta() int { return u.lastMeta }

// NumFacts returns the number of registered (deduplicated) pairs.
func (u *UnseqAA) NumFacts() int { return len(u.pairs) }

func normPair(a, b ir.Value) [2]ir.Value {
	if compareValues(a, b) > 0 {
		return [2]ir.Value{b, a}
	}
	return [2]ir.Value{a, b}
}

// compareValues is a total order on values, so pair normalization is
// symmetric regardless of query direction: by kind (constants, function
// references, globals, instructions, parameters; anything else sorts
// first), then by value, name, ID or index. It is the order of the
// string keys "c<int>|<float>", "f<name>", "g<name>", "i<ID, 9
// digits>", "p<index, 4 digits>" and "?", compared without building
// them except for two constants.
func compareValues(a, b ir.Value) int {
	if ka, kb := valueKind(a), valueKind(b); ka != kb {
		return cmp.Compare(ka, kb)
	}
	switch x := a.(type) {
	case *ir.Instr:
		return comparePadded(x.ID, b.(*ir.Instr).ID, 1e9, "%09d")
	case *ir.Param:
		return comparePadded(x.Idx, b.(*ir.Param).Idx, 1e4, "%04d")
	case *ir.Global:
		return strings.Compare(x.Name, b.(*ir.Global).Name)
	case *ir.FuncRef:
		return strings.Compare(x.Name, b.(*ir.FuncRef).Name)
	case *ir.Const:
		y := b.(*ir.Const)
		if x.I == y.I && math.Float64bits(x.F) == math.Float64bits(y.F) {
			return 0
		}
		return strings.Compare(fmt.Sprintf("%d|%g", x.I, x.F), fmt.Sprintf("%d|%g", y.I, y.F))
	}
	return 0
}

// valueKind ranks the kinds as their key prefixes do: '?' < 'c' < 'f'
// < 'g' < 'i' < 'p'.
func valueKind(v ir.Value) int {
	switch v.(type) {
	case *ir.Const:
		return 1
	case *ir.FuncRef:
		return 2
	case *ir.Global:
		return 3
	case *ir.Instr:
		return 4
	case *ir.Param:
		return 5
	}
	return 0
}

// comparePadded compares two numbers as their decimal strings
// zero-padded by format compare. Below limit, where the padding makes
// every string the same length, that is numeric order.
func comparePadded(a, b, limit int, format string) int {
	if a >= 0 && b >= 0 && a < limit && b < limit {
		return cmp.Compare(a, b)
	}
	return strings.Compare(fmt.Sprintf(format, a), fmt.Sprintf(format, b))
}

func resolveCopies(v ir.Value) ir.Value {
	for {
		in, ok := v.(*ir.Instr)
		if !ok || in.Op != ir.OpConvert {
			return v
		}
		v = in.Args[0]
	}
}

// Name implements Analysis.
func (*UnseqAA) Name() string { return "unseq-aa" }

// Alias implements Analysis.
func (u *UnseqAA) Alias(a, b Location) Result {
	if a.Size == WholeObject || b.Size == WholeObject {
		// A whole-object query stands for accesses at arbitrary offsets
		// from the pointer; a π fact covers only the registered values'
		// own accesses, so it must not answer.
		return MayAlias
	}
	pa := resolveCopies(a.Ptr)
	pb := resolveCopies(b.Ptr)
	if pa == pb {
		return MayAlias // same value: leave Must to basic-aa
	}
	if meta, ok := u.pairs[normPair(pa, pb)]; ok {
		u.lastMeta = meta
		return NoAlias
	}
	// NOTE: no structural extrapolation to derived pointers — a
	// must-not-alias fact about two element pointers says nothing about
	// other offsets from the same bases. Facts apply to the registered
	// values only (after copy resolution); EarlyCSE is what makes the
	// annotation's pointers and the real access pointers the same value.
	return MayAlias
}
