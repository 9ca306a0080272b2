package passes

// Hooks for the external value-numbering tests (cse_key_test.go), which
// need the workload corpus and so cannot live in this package.

type VNKey = vnKey

var ValueKey = valueKey

// Wide reports whether the key spilled operands past the third into its
// string fallback.
func (k vnKey) Wide() bool { return k.wide != "" }

// Hooks for the use-list and DCE oracle tests (uses_test.go).

var (
	BuildUseLists = buildUseLists
	DCE           = dce
	IsPureValueOp = isPureValueOp
)
