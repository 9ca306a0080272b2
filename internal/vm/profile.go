package vm

import (
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
	opInvalid:       {"invalid", 1},
	opAlloca:        {"alloca", 1},
	opLoad:          {"load", 1},
	opStore:         {"store", 1},
	opGEP:           {"gep", 1},
	opBin:           {"bin", 1},
	opFAdd:          {"fadd", 1},
	opFSub:          {"fsub", 1},
	opFMul:          {"fmul", 1},
	opIAdd:          {"iadd", 1},
	opISub:          {"isub", 1},
	opIMul:          {"imul", 1},
	opIBits:         {"ibits", 1},
	opDivRem:        {"divrem", 1},
	opNeg:           {"neg", 1},
	opNot:           {"not", 1},
	opCmp:           {"cmp", 1},
	opSelect:        {"select", 1},
	opConvert:       {"convert", 1},
	opCallFn:        {"call_fn", 1},
	opCallBuiltin:   {"call_builtin", 1},
	opCallIndirect:  {"call_indirect", 1},
	opCallUndefined: {"call_undefined", 1},
	opBr:            {"br", 1},
	opCondBr:        {"condbr", 1},
	opRet:           {"ret", 1},
	opRetVoid:       {"ret_void", 1},
	opUBCheck:       {"ubcheck", 1},
	opMemset:        {"memset", 1},
	opMemcpy:        {"memcpy", 1},
	opVecLoad:       {"vec_load", 1},
	opVecStore:      {"vec_store", 1},
	opVecSplat:      {"vec_splat", 1},
	opVecBin:        {"vec_bin", 1},
	opVecBinF:       {"vec_bin_f", 1},
	opVecBinI:       {"vec_bin_i", 1},
	opVecCmp:        {"vec_cmp", 1},
	opVecReduce:     {"vec_reduce", 1},
	opVecReduceFAdd: {"vec_reduce_fadd", 1},
	opVecIota:       {"vec_iota", 1},
	opVecSelect:     {"vec_select", 1},
	opVecCall:       {"vec_call", 1},
	opFellThrough:   {"fell_through", 0},
	opUnhandled:     {"unhandled", 1},
	opCmpBr:         {"cmp_br", 2},
	opGEPLoad:       {"gep_load", 2},
	opGEPStore:      {"gep_store", 2},
	opGEPVecLoad:    {"gep_vec_load", 2},
	opGEPVecStore:   {"gep_vec_store", 2},
	opLoadConvGEP:   {"load_conv_gep", 3},
	opIAddStore:     {"iadd_store", 2},
	opFMulFAdd:      {"fmul_fadd", 2},
	opSelectConv:    {"select_conv", 2},
	opLoadCmpBr:     {"load_cmp_br", 3},
	// Register-slot forms report under their memory forms' names.
	opLoadSlot:        {"load", 1},
	opStoreSlot:       {"store", 1},
	opLoadConvGEPSlot: {"load_conv_gep", 3},
	opLoadCmpBrSlot:   {"load_cmp_br", 3},
	opIAddStoreSlot:   {"iadd_store", 2},
	opLoadConv:        {"load_conv", 2},
	opLoadCmp:         {"load_cmp", 2},
}

// OpSteps maps every bytecode op name that OpMix and profile samples
// report to its step count: how many IR instructions, and so how many
// of the Executed count, one dispatch of it retires. Chain prefixes,
// which never run, are left out.
func OpSteps() map[string]int {
	m := make(map[string]int, len(opTable))
	for op, o := range opTable {
		if !isPrefix(opcode(op)) {
			m[o.name] = int(o.steps)
		}
	}
	return m
}

// EnableProfile turns on per-pc attribution. Call before the first Run.
func (m *Machine) EnableProfile() { m.Profile = true }

// ProfileSamples flattens the per-pc counters into source-attributed
// samples, in deterministic (function index, pc) order. For a fused
// chain the pc's cycles and retire count cover all of its IR
// instructions; the sample carries the first one's line, which every
// instruction of the chain shares (the vm fuses only within one source
// line), so line attribution stays exact.
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
				Op:      opTable[fc.code[pc].op].name,
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

// OpMix returns retire counts grouped by bytecode opcode name. Fused
// superinstructions count once under their fused name — this is the
// run leg's real dispatch composition.
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
