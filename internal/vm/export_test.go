package vm

// CodeShapes counts the pcs of a compiled program by op name, plus
// "3-step" for pcs that execute three IR instructions and "ubcheck-run"
// for ubchecks that directly follow another in the same segment (the
// ones opUBCheck consumes without returning to dispatch).
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
		}
	}
	return shapes
}
