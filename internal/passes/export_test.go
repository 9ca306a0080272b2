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
