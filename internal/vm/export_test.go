package vm

import (
	"repro/internal/interp"
	"repro/internal/ir"
)

// CompileDecideNothing compiles mod with the compile-time decisions off:
// every ubcheck is evaluated and every load and store goes to memory.
// It is the reference the decisions are checked against.
func CompileDecideNothing(mod *ir.Module) *Program { return compile(mod, true) }

// CodeShapes counts the pcs of a compiled program by op name, plus
// "3-step" for pcs that execute three IR instructions, "ubcheck-run"
// for ubchecks that directly follow another in the same segment (the
// ones opUBCheck consumes without returning to dispatch),
// "ubcheck-decided" for ubchecks decided at compile time, and
// "slot-load" and "slot-store" for pcs whose load or store goes through
// a register slot.
func CodeShapes(p *Program) map[string]int {
	shapes := make(map[string]int)
	for _, fc := range p.fns {
		for pc, in := range fc.code {
			shapes[opTable[in.op].name]++
			if stepsOf(in.op) == 3 {
				shapes["3-step"]++
			}
			if in.op == opUBCheck && pc > 0 && fc.code[pc-1].op == opUBCheck && fc.segEnd[pc-1] > int32(pc) {
				shapes["ubcheck-run"]++
			}
			if in.op == opUBCheck && int(in.target) != pc {
				shapes["ubcheck-decided"]++
			}
			switch in.op {
			case opLoadSlot, opLoadConvGEPSlot, opLoadCmpBrSlot:
				shapes["slot-load"]++
			case opStoreSlot, opIAddStoreSlot:
				shapes["slot-store"]++
			}
		}
	}
	return shapes
}

// ExecutedChecks runs p's main with profiling on and counts the ubchecks
// it executes, and of those the ones decided at compile time.
func ExecutedChecks(p *Program) (checks, decided int64) {
	m := New(p, interp.DefaultCosts())
	defer m.Release()
	m.EnableProfile()
	m.Run("main")
	for _, fc := range p.fns {
		for pc, in := range fc.code {
			if in.op != opUBCheck {
				continue
			}
			n := m.profCells[fc.profOff+pc].retired
			checks += n
			if int(in.target) != pc {
				decided += n
			}
		}
	}
	return checks, decided
}
