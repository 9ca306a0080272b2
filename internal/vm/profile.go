package vm

import (
	"fmt"
	"sort"

	"repro/internal/profile"
	"repro/internal/telemetry"
)

// opTable names every bytecode opcode for telemetry and profiles and
// gives its step count: the interpreter steps one dispatch stands for,
// one per IR instruction of a fused chain, none for the fell-through
// trap (the interpreter errors after the block's last instruction
// without taking another step).
var opTable = [numOpcodes]struct {
	name  string
	steps int8
}{
	opInvalid:          {"invalid", 1},
	opAlloca:           {"alloca", 1},
	opLoad:             {"load", 1},
	opStore:            {"store", 1},
	opGEP:              {"gep", 1},
	opBin:              {"bin", 1},
	opFAdd:             {"fadd", 1},
	opFSub:             {"fsub", 1},
	opFMul:             {"fmul", 1},
	opIAdd:             {"iadd", 1},
	opISub:             {"isub", 1},
	opIMul:             {"imul", 1},
	opIBits:            {"ibits", 1},
	opDivRem:           {"divrem", 1},
	opNeg:              {"neg", 1},
	opNot:              {"not", 1},
	opCmp:              {"cmp", 1},
	opSelect:           {"select", 1},
	opConvert:          {"convert", 1},
	opCallFn:           {"call_fn", 1},
	opCallBuiltin:      {"call_builtin", 1},
	opCallIndirect:     {"call_indirect", 1},
	opCallUndefined:    {"call_undefined", 1},
	opBr:               {"br", 1},
	opCondBr:           {"condbr", 1},
	opRet:              {"ret", 1},
	opRetVoid:          {"ret_void", 1},
	opUBCheck:          {"ubcheck", 1},
	opMemset:           {"memset", 1},
	opMemcpy:           {"memcpy", 1},
	opVecLoad:          {"vec_load", 1},
	opVecStore:         {"vec_store", 1},
	opVecSplat:         {"vec_splat", 1},
	opVecBin:           {"vec_bin", 1},
	opVecBinF:          {"vec_bin_f", 1},
	opVecBinI:          {"vec_bin_i", 1},
	opVecCmp:           {"vec_cmp", 1},
	opVecReduce:        {"vec_reduce", 1},
	opVecReduceFAdd:    {"vec_reduce_fadd", 1},
	opVecIota:          {"vec_iota", 1},
	opVecSelect:        {"vec_select", 1},
	opVecCall:          {"vec_call", 1},
	opFellThrough:      {"fell_through", 0},
	opUnhandled:        {"unhandled", 1},
	opCmpBr:            {"cmp_br", 2},
	opGEPLoad:          {"gep_load", 2},
	opGEPStore:         {"gep_store", 2},
	opGEPVecLoad:       {"gep_vec_load", 2},
	opGEPVecStore:      {"gep_vec_store", 2},
	opLoadConvGEP:      {"load_conv_gep", 3},
	opIAddStore:        {"iadd_store", 2},
	opFMulFAdd:         {"fmul_fadd", 2},
	opSelectConv:       {"select_conv", 2},
	opLoadCmpBr:        {"load_cmp_br", 3},
	opLoadConvGEPLoad:  {"load_conv_gep_load", 4},
	opLoadConvGEPStore: {"load_conv_gep_store", 4},
	// Register-slot forms report under their memory forms' names.
	opLoadSlot:             {"load", 1},
	opStoreSlot:            {"store", 1},
	opStoreConvSlot:        {"store", 1},
	opLoadConvGEPSlot:      {"load_conv_gep", 3},
	opLoadCmpBrSlot:        {"load_cmp_br", 3},
	opIAddStoreSlot:        {"iadd_store", 2},
	opLoadConvGEPLoadSlot:  {"load_conv_gep_load", 4},
	opLoadConvGEPStoreSlot: {"load_conv_gep_store", 4},
	opLoadConv:             {"load_conv", 2},
	opLoadCmp:              {"load_cmp", 2},
}

// shape is what one pc executes: its op, the slot loads folded ahead of
// it (compiler.seal) and whether a br trails it
// (compiler.fallThrough).
type shape struct {
	op    opcode
	folds uint8
	br    bool
}

// maxFolds is the most slot loads a pc of each op may fold, and
// trailing the ops a br may trail: the pcs ahead of which one pass over
// the sanitize workload executes a foldable load or a fall-through br
// often enough to pay for a name (EXPERIMENTS.md). Each shape has a name
// of its own in profiles and the op mix, so the names' step counts stay
// exact. A slot form shares its memory form's entries.
var (
	maxFolds = slotForms([numOpcodes]uint8{
		opLoad: 1, opStore: 1, opGEP: 1, opIAdd: 2, opISub: 1, opIMul: 1,
		opIBits: 1, opDivRem: 1, opCmp: 1, opRet: 1, opGEPLoad: 1,
		opLoadConvGEP: 1, opLoadConvGEPLoad: 1, opLoadConvGEPStore: 1,
		opIAddStore: 1, opLoadCmpBr: 1,
	})
	trailing = slotForms([numOpcodes]bool{opStore: true, opLoadConvGEPStore: true})
)

// slotForms gives the register-slot forms of t's ops their memory
// forms' entries.
func slotForms[V any](t [numOpcodes]V) [numOpcodes]V {
	for slot, mem := range map[opcode]opcode{
		opLoadSlot: opLoad, opStoreSlot: opStore, opStoreConvSlot: opStore,
		opLoadConvGEPSlot: opLoadConvGEP, opLoadCmpBrSlot: opLoadCmpBr,
		opIAddStoreSlot: opIAddStore, opLoadConvGEPLoadSlot: opLoadConvGEPLoad,
		opLoadConvGEPStoreSlot: opLoadConvGEPStore,
	} {
		t[slot] = t[mem]
	}
	return t
}

// shapeNames names every shape the compiler forms: an op's name, with
// "fold_" (or "fold2_" for two loads) ahead of it and "_fall" after it.
var shapeNames = func() map[shape]string {
	names := make(map[shape]string)
	for op := range opcode(numOpcodes) {
		if isPrefix(op) {
			continue
		}
		for f := range maxFolds[op] + 1 {
			for _, br := range []bool{false, true} {
				if br && !trailing[op] {
					continue
				}
				name := opTable[op].name
				if f == 1 {
					name = "fold_" + name
				} else if f > 1 {
					name = fmt.Sprintf("fold%d_%s", f, name)
				}
				if br {
					name += "_fall"
				}
				names[shape{op, f, br}] = name
			}
		}
	}
	return names
}()

// shapeAt is the shape of fc's pc, read off its steps and cost kinds: a
// trailing br is a costBranch step after a pc that does not branch, and
// the steps its op and br do not account for are folded loads.
func (fc *fnCode) shapeAt(pc int) shape {
	op := fc.code[pc].op
	n := fc.steps[pc+1] - fc.steps[pc] - stepsOf(op)
	br := n > 0 && !isTerminator(op) && fc.kinds[fc.steps[pc+1]-1] == costBranch
	if br {
		n--
	}
	return shape{op, uint8(n), br}
}

// pcName is the name of fc's pc in profiles and the op mix.
func (fc *fnCode) pcName(pc int) string { return shapeNames[fc.shapeAt(pc)] }

// OpSteps maps every pc name that OpMix and profile samples report to
// its step count: how many IR instructions, and so how many of the
// Executed count, one dispatch of it retires. Chain prefixes, which
// never run, are left out.
func OpSteps() map[string]int {
	m := make(map[string]int, len(shapeNames))
	for sh, name := range shapeNames {
		m[name] = int(stepsOf(sh.op)) + int(sh.folds) + int(b2i(sh.br))
	}
	return m
}

// EnableProfile turns on per-pc attribution. Call before the first Run.
func (m *Machine) EnableProfile() { m.Profile = true }

// ProfileSamples flattens the per-pc counters into source-attributed
// samples, in deterministic (function index, pc) order, each named by
// its pc's shape. For a pc of several IR instructions (a fused chain,
// folded slot loads, a trailing br) the pc's cycles and retire count
// cover all of them; the sample carries the line they all share (the vm
// fuses and folds only within one source line), so line attribution
// stays exact.
func (m *Machine) ProfileSamples() []profile.Sample {
	if m.profCells == nil {
		return nil
	}
	var out []profile.Sample
	for _, fc := range m.p.fns {
		for pc := range fc.code {
			c := &m.profCells[fc.profOff+pc]
			if c.retired == 0 && c.cycles == 0 {
				continue
			}
			s := profile.Sample{
				Fn:      fc.name,
				Op:      fc.pcName(pc),
				Cycles:  float64(c.cycles) / 1000,
				Retired: c.retired,
			}
			if in := fc.pcIR[pc]; in != nil && in.Span.IsValid() {
				s.File = in.Span.Start.File
				s.Line = in.Span.Start.Line
			}
			out = append(out, s)
		}
	}
	return out
}

// OpMix returns retire counts grouped by pc name. A pc of several IR
// instructions counts once under its own name — this is the run leg's
// real dispatch composition.
func (m *Machine) OpMix() map[string]int64 {
	if m.profCells == nil {
		return nil
	}
	mix := make(map[string]int64)
	for _, fc := range m.p.fns {
		for pc := range fc.code {
			if n := m.profCells[fc.profOff+pc].retired; n > 0 {
				mix[opTable[fc.code[pc].op].name] += n
			}
		}
	}
	return mix
}

// reportOpMix exports the opcode-mix counters (vm/op_<name>) into the
// telemetry session, sorted for deterministic emission order.
func (m *Machine) reportOpMix(tel *telemetry.Session) {
	mix := m.OpMix()
	if len(mix) == 0 {
		return
	}
	names := make([]string, 0, len(mix))
	for n := range mix {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		tel.Count("vm/op_"+n, mix[n])
	}
}
