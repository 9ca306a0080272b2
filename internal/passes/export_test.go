package passes

import "repro/internal/ir"

// Hooks for the external value-numbering tests (cse_key_test.go), which
// need the workload corpus and so cannot live in this package.

type (
	VNKey        = vnKey
	ValueNumbers = valueNumbers
)

// NewValueNumbers returns an empty numbering context, as one earlycse
// call starts with.
func NewValueNumbers() *ValueNumbers {
	vn := newValueNumbers()
	return &vn
}

// Key is the value-numbering key of in within the context vn.
func (vn *valueNumbers) Key(in *ir.Instr) VNKey { return vn.key(in) }

// Wide reports whether the key interned operands past the third into
// its wide number.
func (k vnKey) Wide() bool { return k.wide != 0 }

// Hooks for the use-list and DCE oracle tests (uses_test.go).

var (
	BuildUseLists = buildUseLists
	DCE           = dce
	IsPureValueOp = isPureValueOp
)

// Hooks for the CFG oracle tests (cfg_test.go).

var SimplifyCFG = simplifyCFG

// RaceEnabled reports a -race build, whose instrumentation adds
// allocations.
func RaceEnabled() bool { return raceEnabled }

// DiamondArm reports whether b is a store-diamond arm: speculatable
// instructions (pure) followed by one store and a br.
func DiamondArm(b *ir.Block) (pure []*ir.Instr, store *ir.Instr, ok bool) {
	s, ok := diamondArm(b)
	return s.pure, s.store, ok
}
