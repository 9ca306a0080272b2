package ir

import "math"

// Canonical scalar arithmetic, shared by the execution engines (the
// tree-walking interpreter and the bytecode vm) and by constant folding
// so the three cannot drift: a folded constant must be bit-identical to
// what either runtime would have computed. The pinned choices for
// C-level UB that the IR layer must still totalize (reference semantics
// in csem traps these as Undefined, so they are unobservable in defined
// programs, but every pipeline stage has to agree on SOME value for
// them):
//
//   - division/remainder by zero  → 0
//   - most-negative / -1          → wraps (two's complement, Go's rule)
//   - shift counts                → masked to [0,64), result truncated
//     to the class width
//   - signed overflow             → wraps (as if -fwrapv)
//   - float → int out of range    → saturates (FloatToInt): NaN → 0,
//     values ≥ 2^63 → MaxInt64, values < -2^63 → MinInt64

// TruncInt truncates x to cls's width: sign-extending for signed
// classes, zero-extending for unsigned, so every value is kept in the
// canonical 64-bit representation of its class.
func TruncInt(cls Class, x int64, unsigned bool) int64 {
	switch cls {
	case I8:
		if unsigned {
			return int64(uint8(x))
		}
		return int64(int8(x))
	case I16:
		if unsigned {
			return int64(uint16(x))
		}
		return int64(int16(x))
	case I32:
		if unsigned {
			return int64(uint32(x))
		}
		return int64(int32(x))
	}
	return x
}

// ZeroExt reinterprets x as an unsigned value of cls's width.
func ZeroExt(cls Class, x int64) uint64 {
	switch cls {
	case I8:
		return uint64(uint8(x))
	case I16:
		return uint64(uint16(x))
	case I32:
		return uint64(uint32(x))
	}
	return uint64(x)
}

// FloatToInt is the canonical float→int64 conversion. Go's int64(f) is
// implementation-defined for NaN, ±Inf, and out-of-range values (on
// amd64 it yields 1<<63, on arm64 it saturates); every consumer of the
// value model — both execution engines, constant folding, the harness
// memory accessors — must route through this pinned, deterministic
// saturating rule instead:
//
//	NaN      → 0
//	f ≥ 2^63 → MaxInt64
//	f < -2^63 → MinInt64
//	otherwise → int64(f) (in-range, well-defined truncation)
func FloatToInt(f float64) int64 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= 0x1p63:
		return math.MaxInt64
	case f < -0x1p63:
		return math.MinInt64
	}
	return int64(f)
}

// FoldFloat applies a binary opcode under float semantics. It is the
// float half of the canonical kernel: both engines and any folding of
// float constants must agree on these five operations. ok is false for
// opcodes that have no float form (the bitwise/shift family) — callers
// must treat that as a hard error, not fall through to integer bits.
func FoldFloat(op Op, a, b float64) (r float64, ok bool) {
	switch op {
	case OpAdd:
		return a + b, true
	case OpSub:
		return a - b, true
	case OpMul:
		return a * b, true
	case OpDiv:
		return a / b, true
	case OpRem:
		return math.Mod(a, b), true
	}
	return 0, false
}

// CompareFloat applies a comparison predicate under float semantics
// (IEEE: any comparison with NaN except Ne is false). The unsigned
// predicates have no float meaning and compare like their signed forms.
func CompareFloat(p Pred, a, b float64) bool {
	switch p {
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Lt, ULt:
		return a < b
	case Le, ULe:
		return a <= b
	case Gt, UGt:
		return a > b
	case Ge, UGe:
		return a >= b
	}
	return false
}

// CompareInt applies a comparison predicate to canonical 64-bit integer
// values. unsigned switches the ordered predicates to unsigned
// semantics; the U-preds are unsigned regardless. It is written to
// inline, since the vm's compare handlers run it on every integer
// compare: the predicate selects which of less, equal and greater
// satisfy it (intPredSets), and an unsigned compare flips both sign
// bits, which orders unsigned values as signed ones.
func CompareInt(p Pred, a, b int64, unsigned bool) bool {
	var set uint8
	if uint(p) < uint(len(intPredSets)) {
		set = intPredSets[p]
	}
	if unsigned || set&cmpUnsigned != 0 {
		a, b = a^math.MinInt64, b^math.MinInt64
	}
	o := cmpEq
	if a < b {
		o = cmpLt
	} else if a > b {
		o = cmpGt
	}
	return set&o != 0
}

// The outcome bits of intPredSets, and the flag of the unsigned
// predicates.
const (
	cmpLt uint8 = 1 << iota
	cmpEq
	cmpGt
	cmpUnsigned
)

// intPredSets maps each predicate to the outcomes that satisfy it.
var intPredSets = [...]uint8{
	Eq: cmpEq, Ne: cmpLt | cmpGt,
	Lt: cmpLt, Le: cmpLt | cmpEq, Gt: cmpGt, Ge: cmpGt | cmpEq,
	ULt: cmpLt | cmpUnsigned, ULe: cmpLt | cmpEq | cmpUnsigned,
	UGt: cmpGt | cmpUnsigned, UGe: cmpGt | cmpEq | cmpUnsigned,
}

// FoldInt applies an integer binary opcode with the pinned edge-case
// semantics above; the result is truncated to cls.
func FoldInt(op Op, cls Class, a, b int64, unsigned bool) int64 {
	var r int64
	switch op {
	case OpAdd:
		r = a + b
	case OpSub:
		r = a - b
	case OpMul:
		r = a * b
	case OpDiv:
		if b == 0 {
			return 0
		}
		if unsigned {
			r = int64(ZeroExt(cls, a) / ZeroExt(cls, b))
		} else {
			r = a / b // MinInt64 / -1 wraps to MinInt64 per the Go spec
		}
	case OpRem:
		if b == 0 {
			return 0
		}
		if unsigned {
			r = int64(ZeroExt(cls, a) % ZeroExt(cls, b))
		} else {
			r = a % b
		}
	case OpAnd:
		r = a & b
	case OpOr:
		r = a | b
	case OpXor:
		r = a ^ b
	case OpShl:
		r = a << (uint64(b) & 63)
	case OpShr:
		if unsigned {
			r = int64(ZeroExt(cls, a) >> (uint64(b) & 63))
		} else {
			r = a >> (uint64(b) & 63)
		}
	}
	return TruncInt(cls, r, unsigned)
}
