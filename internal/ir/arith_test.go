package ir

import (
	"math"
	"testing"
)

// TestFloatToIntSaturates pins the canonical float→int rule: Go's
// int64(f) is implementation-defined for these inputs, so every edge
// must map to one fixed value shared by folding and both engines.
func TestFloatToIntSaturates(t *testing.T) {
	cases := []struct {
		name string
		f    float64
		want int64
	}{
		{"nan", math.NaN(), 0},
		{"+inf", math.Inf(1), math.MaxInt64},
		{"-inf", math.Inf(-1), math.MinInt64},
		{"2^63", 0x1p63, math.MaxInt64},
		{"huge", 1e300, math.MaxInt64},
		{"-huge", -1e300, math.MinInt64},
		{"-2^63", -0x1p63, math.MinInt64},
		{"just-below-2^63", 9223372036854774784, 9223372036854774784},
		{"zero", 0, 0},
		{"neg-zero", math.Copysign(0, -1), 0},
		{"trunc", 3.99, 3},
		{"neg-trunc", -3.99, -3},
		{"exact", 1 << 53, 1 << 53},
	}
	for _, c := range cases {
		if got := FloatToInt(c.f); got != c.want {
			t.Errorf("FloatToInt(%s=%g) = %d, want %d", c.name, c.f, got, c.want)
		}
	}
}

// TestFoldFloatRejectsBitwise pins that the float kernel has no bitwise
// form — callers must turn ok=false into a hard error, never integer
// fallthrough.
func TestFoldFloatRejectsBitwise(t *testing.T) {
	for _, op := range []Op{OpAnd, OpOr, OpXor, OpShl, OpShr} {
		if _, ok := FoldFloat(op, 1.5, 2.5); ok {
			t.Errorf("FoldFloat(%s) must report ok=false on floats", op)
		}
	}
	for _, op := range []Op{OpAdd, OpSub, OpMul, OpDiv, OpRem} {
		if _, ok := FoldFloat(op, 1.5, 2.5); !ok {
			t.Errorf("FoldFloat(%s) must handle floats", op)
		}
	}
	if r, _ := FoldFloat(OpRem, 7.5, 2); r != math.Mod(7.5, 2) {
		t.Errorf("FoldFloat(rem) = %g, want math.Mod", r)
	}
}

// TestCompareFloatNaN pins IEEE semantics: every comparison with NaN is
// false except Ne.
func TestCompareFloatNaN(t *testing.T) {
	nan := math.NaN()
	for _, p := range []Pred{Eq, Lt, Le, Gt, Ge, ULt, ULe, UGt, UGe} {
		if CompareFloat(p, nan, 1) {
			t.Errorf("CompareFloat(%v, NaN, 1) must be false", p)
		}
	}
	if !CompareFloat(Ne, nan, nan) {
		t.Error("CompareFloat(Ne, NaN, NaN) must be true")
	}
}

// TestCompareIntUnsignedPreds pins that U-preds compare unsigned even
// when the unsigned flag is clear, and that the flag switches the
// ordered signed predicates.
func TestCompareIntUnsignedPreds(t *testing.T) {
	if !CompareInt(ULt, 1, -1, false) {
		t.Error("ULt: 1 <u -1 (= 2^64-1) must hold")
	}
	if CompareInt(Lt, 1, -1, false) {
		t.Error("Lt signed: 1 < -1 must not hold")
	}
	if !CompareInt(Lt, 1, -1, true) {
		t.Error("Lt with unsigned flag: 1 <u -1 must hold")
	}
}

// compareIntRef is CompareInt written as one case per predicate.
func compareIntRef(p Pred, a, b int64, unsigned bool) bool {
	if unsigned {
		ua, ub := uint64(a), uint64(b)
		switch p {
		case Eq:
			return ua == ub
		case Ne:
			return ua != ub
		case Lt, ULt:
			return ua < ub
		case Le, ULe:
			return ua <= ub
		case Gt, UGt:
			return ua > ub
		case Ge, UGe:
			return ua >= ub
		}
		return false
	}
	switch p {
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	case ULt:
		return uint64(a) < uint64(b)
	case ULe:
		return uint64(a) <= uint64(b)
	case UGt:
		return uint64(a) > uint64(b)
	case UGe:
		return uint64(a) >= uint64(b)
	}
	return false
}

// TestCompareIntMatchesReference checks CompareInt against the
// predicate-by-predicate reference on every predicate, an out-of-range
// one, both values of the unsigned flag and the edge values of int64.
func TestCompareIntMatchesReference(t *testing.T) {
	vals := []int64{math.MinInt64, math.MinInt64 + 1, -2, -1, 0, 1, 2, math.MaxInt64 - 1, math.MaxInt64}
	for p := Eq; p <= UGe+1; p++ {
		for _, u := range []bool{false, true} {
			for _, a := range vals {
				for _, b := range vals {
					if got, want := CompareInt(p, a, b, u), compareIntRef(p, a, b, u); got != want {
						t.Fatalf("CompareInt(%d, %d, %d, %v) = %v, want %v", p, a, b, u, got, want)
					}
				}
			}
		}
	}
}
