// Package ooe implements the paper's core contribution: the static
// order-of-evaluation alias analysis of Fig. 1. For every expression it
// computes the judgement  id : ω, θ, γ, π  where
//
//   - ω: lvalue sub-expressions that are always read (decayed to rvalue),
//   - θ: lvalue sub-expressions that are always written (side effects),
//   - γ ⊆ θ: side effects not followed by a sequence point in at least one
//     evaluation order,
//   - π: unordered pairs of lvalue sub-expressions that must not alias for
//     the evaluation to have defined behaviour on any initial state.
//
// Sets hold expression IDs (see ast.Expr.ID). π pairs are normalized with
// the smaller ID first.
package ooe

import (
	"fmt"
	"sort"
	"strings"
)

// IDSet is a set of expression IDs.
type IDSet map[int]struct{}

// NewIDSet builds a set from ids.
func NewIDSet(ids ...int) IDSet {
	s := make(IDSet, len(ids))
	for _, id := range ids {
		s[id] = struct{}{}
	}
	return s
}

// Has reports membership.
func (s IDSet) Has(id int) bool { _, ok := s[id]; return ok }

// Add inserts id.
func (s IDSet) Add(id int) { s[id] = struct{}{} }

// Sorted returns the elements in ascending order.
func (s IDSet) Sorted() []int {
	out := make([]int, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Equal reports set equality.
func (s IDSet) Equal(t IDSet) bool {
	if len(s) != len(t) {
		return false
	}
	for id := range s {
		if !t.Has(id) {
			return false
		}
	}
	return true
}

func (s IDSet) String() string {
	ids := s.Sorted()
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprint(id)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Pair is an unordered pair of expression IDs, stored with A <= B.
type Pair struct{ A, B int }

// MakePair normalizes the order.
func MakePair(a, b int) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// PairSet is a set of unordered ID pairs.
type PairSet map[Pair]struct{}

// NewPairSet builds a set from pairs.
func NewPairSet(pairs ...Pair) PairSet {
	s := make(PairSet, len(pairs))
	for _, p := range pairs {
		s[MakePair(p.A, p.B)] = struct{}{}
	}
	return s
}

// Has reports membership (order-insensitive).
func (s PairSet) Has(a, b int) bool { _, ok := s[MakePair(a, b)]; return ok }

// Add inserts the pair (a,b).
func (s PairSet) Add(a, b int) { s[MakePair(a, b)] = struct{}{} }

// Sorted returns pairs ordered lexicographically.
func (s PairSet) Sorted() []Pair {
	out := make([]Pair, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Equal reports pair-set equality.
func (s PairSet) Equal(t PairSet) bool {
	if len(s) != len(t) {
		return false
	}
	for p := range s {
		if _, ok := t[p]; !ok {
			return false
		}
	}
	return true
}

func (s PairSet) String() string {
	pairs := s.Sorted()
	parts := make([]string, len(pairs))
	for i, p := range pairs {
		parts[i] = fmt.Sprintf("(%d,%d)", p.A, p.B)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Sets is the judgement for one expression: id : ω, θ, γ, π.
type Sets struct {
	Omega IDSet
	Theta IDSet
	Gamma IDSet
	Pi    PairSet
}
