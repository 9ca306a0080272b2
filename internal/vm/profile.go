package vm

import (
	"sort"

	"repro/internal/profile"
	"repro/internal/telemetry"
)

// opNames maps bytecode opcodes to telemetry/profile names.
var opNames = [...]string{
	opInvalid:       "invalid",
	opAlloca:        "alloca",
	opLoad:          "load",
	opStore:         "store",
	opGEP:           "gep",
	opBin:           "bin",
	opFAdd:          "fadd",
	opFSub:          "fsub",
	opFMul:          "fmul",
	opIAdd:          "iadd",
	opISub:          "isub",
	opIMul:          "imul",
	opIBits:         "ibits",
	opDivRem:        "divrem",
	opNeg:           "neg",
	opNot:           "not",
	opCmp:           "cmp",
	opSelect:        "select",
	opConvert:       "convert",
	opCallFn:        "call_fn",
	opCallBuiltin:   "call_builtin",
	opCallIndirect:  "call_indirect",
	opCallUndefined: "call_undefined",
	opBr:            "br",
	opCondBr:        "condbr",
	opRet:           "ret",
	opRetVoid:       "ret_void",
	opUBCheck:       "ubcheck",
	opMemset:        "memset",
	opMemcpy:        "memcpy",
	opVecLoad:       "vec_load",
	opVecStore:      "vec_store",
	opVecSplat:      "vec_splat",
	opVecBin:        "vec_bin",
	opVecBinF:       "vec_bin_f",
	opVecBinI:       "vec_bin_i",
	opVecCmp:        "vec_cmp",
	opVecReduce:     "vec_reduce",
	opVecReduceFAdd: "vec_reduce_fadd",
	opVecIota:       "vec_iota",
	opVecSelect:     "vec_select",
	opVecCall:       "vec_call",
	opFellThrough:   "fell_through",
	opUnhandled:     "unhandled",
	opCmpBr:         "cmp_br",
	opGEPLoad:       "gep_load",
	opGEPStore:      "gep_store",
	opGEPVecLoad:    "gep_vec_load",
	opGEPVecStore:   "gep_vec_store",
}

// EnableProfile turns on per-pc attribution. Call before the first Run.
func (m *Machine) EnableProfile() { m.Profile = true }

// ProfileSamples flattens the per-pc counters into source-attributed
// samples, in deterministic (function index, pc) order. For a fused
// superinstruction the pc's cycles cover both IR instructions; the
// sample carries the first one's span (the pair always lowers from one
// expression).
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
				Op:      opNames[fc.code[pc].op],
				Cycles:  float64(c.cycles) / 1000,
				Retired: c.retired,
			}
			if ref := fc.pcIR[pc]; ref.a != nil && ref.a.Span.IsValid() {
				s.File = ref.a.Span.Start.File
				s.Line = ref.a.Span.Start.Line
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
				mix[opNames[fc.code[pc].op]] += n
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
