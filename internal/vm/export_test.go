package vm

import (
	"repro/internal/interp"
	"repro/internal/ir"
)

// CompileDecideNothing compiles mod with the compile-time decisions off:
// every ubcheck is evaluated and every load and store goes to memory.
// It is the reference the decisions are checked against.
func CompileDecideNothing(mod *ir.Module) *Program { return compile(mod, true) }

// CodeShapes counts the pcs of a compiled program by name, plus
// "3-step" for pcs that execute three IR instructions and "4+-step" for
// those that execute more, "ubcheck-run" for ubchecks that directly
// follow another in the same segment (the ones opUBCheck consumes
// without returning to dispatch), "ubcheck-decided" for ubchecks
// decided at compile time, "slot-load" and "slot-store" for the loads
// and stores that go through a register slot, a folded load included,
// "slot-fold" for the folded loads and "fall-br" for trailing brs.
func CodeShapes(p *Program) map[string]int {
	shapes := make(map[string]int)
	for _, fc := range p.fns {
		for pc, in := range fc.code {
			shapes[fc.pcName(pc)]++
			switch n := fc.steps[pc+1] - fc.steps[pc]; {
			case n == 3:
				shapes["3-step"]++
			case n >= 4:
				shapes["4+-step"]++
			}
			// A folded load still goes through its slot.
			sh := fc.shapeAt(pc)
			shapes["slot-fold"] += int(sh.folds)
			shapes["slot-load"] += int(sh.folds)
			if sh.br {
				shapes["fall-br"]++
			}
			if inRun(fc, pc) {
				shapes["ubcheck-run"]++
			}
			if in.op == opUBCheck && int(in.target) != pc {
				shapes["ubcheck-decided"]++
			}
			switch in.op {
			case opLoadSlot, opLoadConvGEPSlot, opLoadCmpBrSlot, opLoadConvGEPLoadSlot, opLoadConvGEPStoreSlot:
				shapes["slot-load"]++
			case opStoreSlot, opStoreConvSlot, opIAddStoreSlot:
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

// DispatchMix runs p's main with profiling on and counts its dispatches
// by pc name the way the unprofiled loop makes them: every pc once per
// execution, except that a run of ubchecks costs one dispatch, at its
// first check.
func DispatchMix(p *Program) map[string]int64 {
	m := New(p, interp.DefaultCosts())
	defer m.Release()
	m.EnableProfile()
	m.Run("main")
	mix := make(map[string]int64)
	for _, fc := range p.fns {
		for pc := range fc.code {
			n := m.profCells[fc.profOff+pc].retired
			if n == 0 || inRun(fc, pc) {
				continue
			}
			mix[fc.pcName(pc)] += n
		}
	}
	return mix
}

// inRun reports whether fc's pc is a ubcheck that directly follows
// another in the same segment, which the first one's dispatch runs.
func inRun(fc *fnCode, pc int) bool {
	return fc.code[pc].op == opUBCheck && pc > 0 && fc.code[pc-1].op == opUBCheck && fc.segEnd[pc-1] > int32(pc)
}
