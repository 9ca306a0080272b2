package passes

import (
	"encoding/binary"
	"math"

	"repro/internal/aa"
	"repro/internal/ir"
	"repro/internal/telemetry"
)

// availMem is an available memory value (a prior load's result or a
// stored value) during the block-local CSE walk. unseqKept/meta record
// that an unseq-aa NoAlias answer is what kept it available past a
// potentially-clobbering write — the attribution for the remark when
// a later load is eliminated against it.
type availMem struct {
	load      *ir.Instr // redundant-load source (nil for stores)
	val       ir.Value  // store-to-load forwarding source
	unseqKept bool
	meta      int
}

// memEntry is one memTable slot; deletion tombstones it in place so the
// insertion order of the live entries is preserved.
type memEntry struct {
	ptr  ir.Value
	e    availMem
	dead bool
}

// memTable is an insertion-ordered ptr -> availMem map. The invalidation
// walk iterates it issuing alias queries, and the audit log must observe
// those queries in a deterministic order — a plain map's random range
// order would make the -aa-audit artifact differ run to run. Entries are
// held by value and the table is reset, not reallocated, per block.
type memTable struct {
	entries []memEntry
	byPtr   map[ir.Value]int // live entries only: ptr -> index in entries
}

func newMemTable() *memTable {
	return &memTable{byPtr: map[ir.Value]int{}}
}

func (t *memTable) reset() {
	t.entries = t.entries[:0]
	clear(t.byPtr)
}

func (t *memTable) get(p ir.Value) (availMem, bool) {
	if i, ok := t.byPtr[p]; ok {
		return t.entries[i].e, true
	}
	return availMem{}, false
}

func (t *memTable) put(p ir.Value, e availMem) {
	if i, ok := t.byPtr[p]; ok {
		t.entries[i].e = e
		return
	}
	t.byPtr[p] = len(t.entries)
	t.entries = append(t.entries, memEntry{ptr: p, e: e})
}

func (t *memTable) del(p ir.Value) {
	if i, ok := t.byPtr[p]; ok {
		t.entries[i].dead = true
		delete(t.byPtr, p)
	}
}

// invalidate drops every entry a write of size bytes at writePtr may
// clobber; a nil writePtr clobbers everything.
func (t *memTable) invalidate(mgr *aa.Manager, writePtr ir.Value, size int) {
	for i := range t.entries {
		en := &t.entries[i]
		if en.dead {
			continue
		}
		if writePtr == nil || mgr.Alias(aa.Location{Ptr: en.ptr, Size: 8},
			aa.Location{Ptr: writePtr, Size: size}) != aa.NoAlias {
			t.del(en.ptr)
		} else {
			en.noteKept(mgr)
		}
	}
}

// invalidateCall drops only the entries the call's summary says it may
// write, instead of clearing the whole table.
func (t *memTable) invalidateCall(mgr *aa.Manager, call *ir.Instr) {
	for i := range t.entries {
		en := &t.entries[i]
		if en.dead {
			continue
		}
		if mgr.CallModRef(call, aa.Location{Ptr: en.ptr, Size: 8})&aa.ModEffect != 0 {
			t.del(en.ptr)
		} else {
			en.noteKept(mgr)
		}
	}
}

// noteKept records the first unseq-aa answer that kept en available.
func (en *memEntry) noteKept(mgr *aa.Manager) {
	if att := mgr.Last(); att.UnseqDecided && !en.e.unseqKept {
		en.e.unseqKept = true
		en.e.meta = att.PredicateMeta
	}
}

// earlyCSE performs block-local common-subexpression elimination and
// redundant-load elimination (the GVN analog LLVM credits in the paper's
// perlbench statistics). Identical pure instructions are unified —
// crucially this makes a CANT_ALIAS annotation's address computations the
// very same IR values as the real accesses, so unseq-aa facts apply to
// both. Loads are reused when no intervening instruction may write the
// location; stores forward their value to subsequent loads.
func earlyCSE(mod *ir.Module, f *ir.Func, mgr *aa.Manager, tel *telemetry.Session) int {
	defer mgr.SetPass(mgr.SetPass("earlycse"))
	removed := 0
	avail := map[vnKey]*ir.Instr{} // pure value numbering
	loads := newMemTable()         // ptr -> load instr providing value
	stored := newMemTable()        // ptr -> last stored value
	seenFacts := map[[2]ir.Value]bool{}
	for _, b := range f.Blocks {
		clear(avail)
		loads.reset()
		stored.reset()
		clear(seenFacts)

		invalidate := func(writePtr ir.Value, size int) {
			loads.invalidate(mgr, writePtr, size)
			stored.invalidate(mgr, writePtr, size)
		}
		memRemark := func(kind string, e availMem) {
			if tel.RemarksEnabled() {
				tel.Remark(telemetry.Remark{
					Pass: "earlycse", Function: f.Name, Loc: b.Name, Kind: kind,
					EnabledByUnseqAA: e.unseqKept, PredicateMeta: e.meta,
				})
			}
		}

		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			switch {
			case isPureValueOp(in):
				key := valueKey(in)
				if prev, ok := avail[key]; ok {
					replaceUses(f, in, prev)
					removeAt(b, i)
					i--
					removed++
					continue
				}
				avail[key] = in

			case in.Op == ir.OpLoad && !in.Volatile:
				ptr := in.Args[0]
				if e, ok := stored.get(ptr); ok && e.val.Class() == in.Cls {
					// Store-to-load forwarding. The slot narrows the value to
					// the load width and the load re-extends per its own
					// signedness; a stored value in a different canonical form
					// (e.g. sign-extended, reloaded unsigned) cannot be
					// substituted directly — rewrite the load into the convert
					// that replays that round-trip instead.
					if v, exact := canonicalFor(e.val, in.Cls, in.Unsigned); exact {
						replaceUses(f, in, v)
						removeAt(b, i)
						i--
					} else {
						in.Op = ir.OpConvert
						in.Args = []ir.Value{e.val}
					}
					removed++
					memRemark("StoreForwarded", e)
					continue
				}
				if e, ok := loads.get(ptr); ok && e.load.Cls == in.Cls &&
					(e.load.Unsigned == in.Unsigned || in.Cls == ir.I64 ||
						in.Cls == ir.Ptr || in.Cls.IsFloat()) {
					replaceUses(f, in, e.load)
					removeAt(b, i)
					i--
					removed++
					memRemark("LoadEliminated", e)
					continue
				}
				loads.put(ptr, availMem{load: in})

			case in.Op == ir.OpStore && !in.Volatile:
				ptr := in.Args[0]
				invalidate(ptr, accessSize(in))
				stored.put(ptr, availMem{val: in.Args[1]})
				loads.del(ptr)

			case in.Op == ir.OpVecStore || in.Op == ir.OpMemset || in.Op == ir.OpMemcpy:
				ptr, size := memLoc(in)
				invalidate(ptr, size)

			case in.Op == ir.OpCall:
				if _, writes := callEffects(mod, in); writes {
					if mgr.HasSummaries() {
						loads.invalidateCall(mgr, in)
						stored.invalidateCall(mgr, in)
					} else {
						invalidate(nil, 0)
					}
				}

			case in.Op == ir.OpMustNotAlias:
				// Deduplicate identical facts (annotation macros create
				// many redundant copies).
				a, c := in.Args[0], in.Args[1]
				key := [2]ir.Value{a, c}
				if a2, c2 := c, a; lessValue(a2, a) {
					key = [2]ir.Value{a2, c2}
				}
				if seenFacts[key] {
					removeAt(b, i)
					i--
					removed++
					continue
				}
				seenFacts[key] = true

			case in.Op == ir.OpUBCheck:
				// No memory effects.
			}
		}
	}
	return removed
}

// vnKey is the value-numbering key of a pure instruction: two
// instructions with equal keys compute the same value. It is comparable,
// so building and looking one up allocates nothing. Operands past the
// third (no pure op has them today) are encoded into wide.
type vnKey struct {
	op, vecOp  ir.Op
	cls        ir.Class
	pred       ir.Pred
	scale, off int
	width      int
	unsigned   bool
	nargs      int
	args       [3]operandKey
	wide       string
}

// valueKey builds the value-numbering key of a pure instruction.
func valueKey(in *ir.Instr) vnKey {
	k := vnKey{
		op: in.Op, vecOp: in.VecOp, cls: in.Cls, pred: in.Pred,
		scale: in.Scale, off: in.Off, width: in.Width,
		unsigned: in.Unsigned, nargs: len(in.Args),
	}
	var wide []byte
	for i, a := range in.Args {
		if i < len(k.args) {
			k.args[i] = operandKeyOf(a)
		} else {
			wide = operandKeyOf(a).appendTo(wide)
		}
	}
	k.wide = string(wide)
	return k
}

// operandKind tells the operand namespaces apart, so a global and a
// function reference of one name, or a parameter index and an
// instruction ID of one number, never collide.
type operandKind uint8

const (
	opndOther operandKind = iota // nil or an unknown Value type
	opndInt
	opndFloat
	opndGlobal
	opndParam
	opndFunc
	opndInstr
)

// operandKey identifies an instruction operand for value numbering.
// Integer constants compare by value whatever their class; float
// constants by bit pattern, with every NaN folded into one key (and
// -0 kept apart from 0); instructions by ID, parameters by index, and
// globals and function references by name.
type operandKey struct {
	kind operandKind
	n    int64
	name string
}

func operandKeyOf(a ir.Value) operandKey {
	switch x := a.(type) {
	case *ir.Const:
		if x.Cls.IsFloat() {
			if math.IsNaN(x.F) {
				return operandKey{kind: opndFloat, n: -1}
			}
			return operandKey{kind: opndFloat, n: int64(math.Float64bits(x.F))}
		}
		return operandKey{kind: opndInt, n: x.I}
	case *ir.Global:
		return operandKey{kind: opndGlobal, name: x.Name}
	case *ir.Param:
		return operandKey{kind: opndParam, n: int64(x.Idx)}
	case *ir.FuncRef:
		return operandKey{kind: opndFunc, name: x.Name}
	case *ir.Instr:
		return operandKey{kind: opndInstr, n: int64(x.ID)}
	}
	return operandKey{}
}

func (k operandKey) appendTo(b []byte) []byte {
	b = append(b, byte(k.kind))
	b = binary.AppendVarint(b, k.n)
	b = binary.AppendUvarint(b, uint64(len(k.name)))
	return append(b, k.name...)
}

// lessValue is an arbitrary-but-stable order on values for fact
// normalization.
func lessValue(a, b ir.Value) bool {
	x, y := operandKeyOf(a), operandKeyOf(b)
	if x.kind != y.kind {
		return x.kind < y.kind
	}
	if x.n != y.n {
		return x.n < y.n
	}
	return x.name < y.name
}

// instCombine folds algebraic identities and constant expressions; the
// counter maps to the paper's "nodes combined" SelectionDAG statistic.
// It also removes no-op stores (store p, (load p) with no intervening
// write) — the residue the CANT_ALIAS macro's self-assignments leave
// behind, regardless of any aliasing knowledge.
func instCombine(f *ir.Func) int {
	combined := 0
	for _, b := range f.Blocks {
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if v := simplify(in); v != nil {
				replaceUses(f, in, v)
				removeAt(b, i)
				i--
				combined++
			}
		}
		combined += removeNoopStores(b)
	}
	return combined
}

// removeNoopStores deletes `store p, v` where v = load p happened earlier
// in the block with no possible write in between (always sound: the
// memory state cannot have changed).
func removeNoopStores(b *ir.Block) int {
	removed := 0
	for i := 0; i < len(b.Instrs); i++ {
		st := b.Instrs[i]
		if st.Op != ir.OpStore || st.Volatile {
			continue
		}
		ld, ok := st.Args[1].(*ir.Instr)
		if !ok || ld.Op != ir.OpLoad || ld.Args[0] != st.Args[0] || ld.Volatile {
			continue
		}
		// Find the load's position and scan the gap for writes.
		j := -1
		for k := 0; k < i; k++ {
			if b.Instrs[k] == ld {
				j = k
				break
			}
		}
		if j < 0 {
			continue
		}
		clean := true
		for k := j + 1; k < i; k++ {
			if b.Instrs[k].IsMemWrite() {
				clean = false
				break
			}
		}
		if clean {
			removeAt(b, i)
			i--
			removed++
		}
	}
	return removed
}

// simplify returns a replacement value for in, or nil.
func simplify(in *ir.Instr) ir.Value {
	c := func(n int) (*ir.Const, bool) {
		if n < len(in.Args) {
			k, ok := in.Args[n].(*ir.Const)
			return k, ok
		}
		return nil, false
	}
	k0, ok0 := c(0)
	k1, ok1 := c(1)
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr:
		if ok0 && ok1 && !in.Cls.IsFloat() {
			return ir.ConstInt(in.Cls, foldInt(in.Op, k0.I, k1.I, in.Cls, in.Unsigned))
		}
		if ok1 && !k1.Cls.IsFloat() {
			switch {
			case k1.I == 0 && (in.Op == ir.OpAdd || in.Op == ir.OpSub ||
				in.Op == ir.OpOr || in.Op == ir.OpXor || in.Op == ir.OpShl || in.Op == ir.OpShr):
				return in.Args[0]
			case k1.I == 1 && in.Op == ir.OpMul:
				return in.Args[0]
			case k1.I == 0 && (in.Op == ir.OpMul || in.Op == ir.OpAnd):
				return ir.ConstInt(in.Cls, 0)
			}
		}
		if ok0 && !k0.Cls.IsFloat() {
			switch {
			case k0.I == 0 && (in.Op == ir.OpAdd || in.Op == ir.OpOr || in.Op == ir.OpXor):
				return in.Args[1]
			case k0.I == 1 && in.Op == ir.OpMul:
				return in.Args[1]
			case k0.I == 0 && (in.Op == ir.OpMul || in.Op == ir.OpAnd):
				return ir.ConstInt(in.Cls, 0)
			}
		}
	case ir.OpDiv, ir.OpRem:
		// The interpreter traps integer division by zero at runtime, so a
		// zero divisor must never be folded away — the instruction stays
		// and the trap is preserved at every optimization level.
		if ok0 && ok1 && !in.Cls.IsFloat() && !k0.Cls.IsFloat() && !k1.Cls.IsFloat() && k1.I != 0 {
			return ir.ConstInt(in.Cls, ir.FoldInt(in.Op, in.Cls, k0.I, k1.I, in.Unsigned))
		}
		if in.Op == ir.OpDiv && ok1 && !k1.Cls.IsFloat() && k1.I == 1 {
			return in.Args[0]
		}
	case ir.OpNeg:
		if ok0 {
			if k0.Cls.IsFloat() {
				return ir.ConstFloat(in.Cls, -k0.F)
			}
			return ir.ConstInt(in.Cls, ir.TruncInt(in.Cls, -k0.I, in.Unsigned))
		}
	case ir.OpNot:
		if ok0 && !k0.Cls.IsFloat() {
			return ir.ConstInt(in.Cls, ir.TruncInt(in.Cls, ^k0.I, in.Unsigned))
		}
	case ir.OpCmp:
		if ok0 && ok1 && !k0.Cls.IsFloat() && !k1.Cls.IsFloat() {
			// ir.CompareInt is the engines' compare kernel: the Unsigned
			// flag switches Lt/Le/Gt/Ge to unsigned semantics, and the
			// U-preds are unsigned regardless.
			if ir.CompareInt(in.Pred, k0.I, k1.I, in.Unsigned) {
				return ir.ConstInt(ir.I32, 1)
			}
			return ir.ConstInt(ir.I32, 0)
		}
	case ir.OpConvert:
		if ok0 {
			if in.Cls.IsFloat() {
				if k0.Cls.IsFloat() {
					return ir.ConstFloat(in.Cls, k0.F)
				}
				return ir.ConstFloat(in.Cls, float64(k0.I))
			}
			if k0.Cls.IsFloat() {
				// ir.FloatToInt pins the NaN/±Inf/out-of-range cases so the
				// fold matches what both engines execute.
				return ir.ConstInt(in.Cls, ir.TruncInt(in.Cls, ir.FloatToInt(k0.F), in.Unsigned))
			}
			return ir.ConstInt(in.Cls, ir.TruncInt(in.Cls, k0.I, in.Unsigned))
		}
		// A same-class convert is a copy only when the operand is already
		// in this (class, signedness) canonical form — an i32 value in
		// unsigned form converted to signed i32 really does change the
		// register contents (re-extension of the low 32 bits).
		if in.Args[0].Class() == in.Cls {
			if v, exact := canonicalFor(in.Args[0], in.Cls, in.Unsigned); exact {
				return v
			}
		}
	case ir.OpSelect:
		if ok0 && !k0.Cls.IsFloat() {
			if k0.I != 0 {
				return in.Args[1]
			}
			return in.Args[2]
		}
	case ir.OpGEP:
		// gep(base, 0)*s + 0 is the base itself.
		if ok1 && !k1.Cls.IsFloat() && k1.I == 0 && in.Off == 0 {
			return in.Args[0]
		}
	}
	return nil
}

// foldInt delegates to the canonical kernel shared with the interpreter
// (ir.FoldInt): a folded constant must be bit-identical to the value the
// runtime would compute, including truncation to the class width.
func foldInt(op ir.Op, a, b int64, cls ir.Class, unsigned bool) int64 {
	return ir.FoldInt(op, cls, a, b, unsigned)
}
