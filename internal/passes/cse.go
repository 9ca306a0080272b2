package passes

import (
	"encoding/binary"
	"math"
	"sync"

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
//
// The live entries are indexed by pointer identity. An instruction
// pointer is looked up by ID in byID, whose slots count only under the
// current block's stamp, so a reset is an increment; any other pointer
// (a global, a parameter) goes through byPtr.
type memTable struct {
	entries []memEntry
	byID    []memSlot
	stamp   uint32
	byPtr   map[ir.Value]int32
}

// memSlot holds the entry index of the instruction with that ID.
type memSlot struct {
	stamp uint32
	i     int32
}

func newMemTable() memTable {
	return memTable{byPtr: map[ir.Value]int32{}}
}

// start readies the table for a call on f; reset must follow before
// the first put.
func (t *memTable) start(f *ir.Func) {
	if n := f.NumIDs(); len(t.byID) < n {
		t.byID = make([]memSlot, n)
	}
}

// reset empties the table for a new block.
func (t *memTable) reset() {
	for _, en := range t.entries {
		if _, isInstr := en.ptr.(*ir.Instr); !isInstr && !en.dead {
			delete(t.byPtr, en.ptr)
		}
	}
	t.entries = t.entries[:0]
	t.stamp++
	if t.stamp == 0 {
		// Wrapped: a slot from 2^32 blocks ago would read as live.
		clear(t.byID)
		t.stamp = 1
	}
}

// index returns the index of p's live entry.
func (t *memTable) index(p ir.Value) (int, bool) {
	if x, ok := p.(*ir.Instr); ok {
		s := t.byID[x.ID]
		return int(s.i), s.stamp == t.stamp
	}
	i, ok := t.byPtr[p]
	return int(i), ok
}

func (t *memTable) get(p ir.Value) (availMem, bool) {
	if i, ok := t.index(p); ok {
		return t.entries[i].e, true
	}
	return availMem{}, false
}

func (t *memTable) put(p ir.Value, e availMem) {
	if i, ok := t.index(p); ok {
		t.entries[i].e = e
		return
	}
	i := int32(len(t.entries))
	if x, ok := p.(*ir.Instr); ok {
		t.byID[x.ID] = memSlot{stamp: t.stamp, i: i}
	} else {
		t.byPtr[p] = i
	}
	t.entries = append(t.entries, memEntry{ptr: p, e: e})
}

func (t *memTable) del(p ir.Value) {
	i, ok := t.index(p)
	if !ok {
		return
	}
	t.entries[i].dead = true
	if x, ok := p.(*ir.Instr); ok {
		t.byID[x.ID].stamp = 0 // a live stamp is never 0
	} else {
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
// location; stores forward their value to subsequent loads. Uses of an
// eliminated instruction are rewritten at once through use lists.
func earlyCSE(mod *ir.Module, f *ir.Func, mgr *aa.Manager, tel *telemetry.Session) int {
	s := cseScratchPool.Get().(*cseScratch)
	removed := s.earlyCSE(mod, f, mgr, tel)
	cseScratchPool.Put(s)
	return removed
}

// earlyCSE runs the pass on f with s's tables.
func (s *cseScratch) earlyCSE(mod *ir.Module, f *ir.Func, mgr *aa.Manager, tel *telemetry.Session) int {
	defer mgr.SetPass(mgr.SetPass("earlycse"))
	s.vn.reset()
	removed := 0
	uses := useRewriter{f: f, links: s.links[:0]}
	loads := &s.loads   // ptr -> load instr providing value
	stored := &s.stored // ptr -> last stored value
	loads.start(f)
	stored.start(f)
	seenFacts := s.seenFacts
	for _, b := range f.Blocks {
		s.avail.next()
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
				key := s.vn.key(in)
				if prev, ok := s.avail.lookupOrInsert(&key, key.hash(), in); ok {
					uses.replace(in, prev)
					uses.remove(b, i)
					i--
					removed++
					continue
				}

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
						uses.replace(in, v)
						uses.remove(b, i)
						i--
					} else {
						in.Op = ir.OpConvert
						uses.setArgs(in, e.val)
					}
					removed++
					memRemark("StoreForwarded", e)
					continue
				}
				if e, ok := loads.get(ptr); ok && e.load.Cls == in.Cls &&
					(e.load.Unsigned == in.Unsigned || in.Cls == ir.I64 ||
						in.Cls == ir.Ptr || in.Cls.IsFloat()) {
					uses.replace(in, e.load)
					uses.remove(b, i)
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
					uses.remove(b, i)
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
	s.links = uses.links[:0]
	return removed
}

// cseScratch is earlycse's working state. It is pooled rather than
// built per call because earlycse runs once per function in the
// pipeline and again inside every licm, and regrowing the tables from
// empty on each call would allocate more than the rest of the pass. A
// call takes a scratch, resets what the previous call left behind, and
// returns it; a call that panics simply drops it. The pool hands each
// concurrent worker a scratch of its own.
type cseScratch struct {
	vn            valueNumbers
	avail         stampTable[vnKey, *ir.Instr] // pure value numbering, stamped per block
	loads, stored memTable
	seenFacts     map[[2]ir.Value]bool
	links         []useLink // the use rewriter's overflow chains
}

var cseScratchPool = sync.Pool{New: func() any { return newCSEScratch() }}

func newCSEScratch() *cseScratch {
	return &cseScratch{
		vn:        newValueNumbers(),
		loads:     newMemTable(),
		stored:    newMemTable(),
		seenFacts: map[[2]ir.Value]bool{},
	}
}

// valueNumbers gives earlycse's operands dense int32 value numbers for
// one call. An instruction's number is its ID. Every other operand gets
// a negative number, interned by its operandKey in a table stamped per
// call, so two operands get one number exactly when their operandKeys
// are equal. Operand tails past the third are interned to a number of
// their own. Numbers are meaningful only within the call that made them.
type valueNumbers struct {
	interned stampTable[operandKey, int32]
	wides    map[string]int32 // operand tail encoding -> number from 1
	buf      []byte
}

func newValueNumbers() valueNumbers {
	vn := valueNumbers{wides: map[string]int32{}}
	vn.reset()
	return vn
}

// reset forgets every number. Operands are interned by content, never
// by pointer, so a number left from an earlier call would not be wrong;
// the reset keeps the table to one function's operands.
func (vn *valueNumbers) reset() {
	vn.interned.next()
	clear(vn.wides)
}

// of returns a's value number.
func (vn *valueNumbers) of(a ir.Value) int32 {
	if x, ok := a.(*ir.Instr); ok {
		return int32(x.ID)
	}
	k := operandKeyOf(a)
	n, _ := vn.interned.lookupOrInsert(&k, k.hash(), -1-int32(vn.interned.n))
	return n
}

// vnKey is the value-numbering key of a pure instruction: two
// instructions with equal keys compute the same value. It holds only
// integers, so it hashes without touching a string and building one
// allocates nothing. Operands past the third (no pure op has them today)
// are interned together into wide, which is 0 when there are none.
type vnKey struct {
	op, vecOp  ir.Op
	cls        ir.Class
	pred       ir.Pred
	scale, off int
	width      int
	args       [3]int32
	wide       int32
	nargs      int32
	unsigned   bool
}

// key builds the value-numbering key of a pure instruction.
func (vn *valueNumbers) key(in *ir.Instr) vnKey {
	k := vnKey{
		op: in.Op, vecOp: in.VecOp, cls: in.Cls, pred: in.Pred,
		scale: in.Scale, off: in.Off, width: in.Width,
		unsigned: in.Unsigned, nargs: int32(len(in.Args)),
	}
	for i, a := range in.Args {
		if i == len(k.args) {
			k.wide = vn.wideOf(in.Args[i:])
			break
		}
		k.args[i] = vn.of(a)
	}
	return k
}

// wideOf interns the value numbers of an operand tail.
func (vn *valueNumbers) wideOf(tail []ir.Value) int32 {
	b := vn.buf[:0]
	for _, a := range tail {
		b = binary.LittleEndian.AppendUint32(b, uint32(vn.of(a)))
	}
	vn.buf = b
	n, ok := vn.wides[string(b)]
	if !ok {
		n = int32(len(vn.wides)) + 1
		vn.wides[string(b)] = n
	}
	return n
}

// hash mixes every field of k; equal keys hash equally.
func (k *vnKey) hash() uint32 {
	h := uint64(k.op) ^ uint64(k.vecOp)<<16 ^ uint64(k.cls)<<32 ^ uint64(k.pred)<<48
	h = mixHash(h, uint64(k.scale))
	h = mixHash(h, uint64(k.off))
	h = mixHash(h, uint64(k.width)^uint64(k.nargs)<<32)
	h = mixHash(h, uint64(uint32(k.args[0]))|uint64(uint32(k.args[1]))<<32)
	h = mixHash(h, uint64(uint32(k.args[2]))|uint64(uint32(k.wide))<<32)
	if k.unsigned {
		h = mixHash(h, 1)
	}
	return uint32(h ^ h>>32)
}

// hash mixes k's kind, number and name (FNV-1a over its bytes).
func (k *operandKey) hash() uint32 {
	h := mixHash(uint64(k.kind), uint64(k.n))
	if k.name != "" {
		name := uint64(14695981039346656037)
		for i := 0; i < len(k.name); i++ {
			name = (name ^ uint64(k.name[i])) * 1099511628211
		}
		h = mixHash(h, name)
	}
	return uint32(h ^ h>>32)
}

func mixHash(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// stampTable is an insert-only hash table, open-addressed with linear
// probing. A slot is live only while its stamp equals the table's, so
// next empties the table with one increment instead of a clear of a
// table grown to the largest block or function seen; slots of earlier
// stamps are never read, only overwritten. next must run before the
// first insert.
type stampTable[K comparable, V any] struct {
	slots []stampSlot[K, V] // power-of-two length, at most half live
	stamp uint32
	n     int // live slots
}

type stampSlot[K comparable, V any] struct {
	key   K
	val   V
	stamp uint32
	hash  uint32
}

// next empties the table.
func (t *stampTable[K, V]) next() {
	t.stamp++
	t.n = 0
	if t.stamp == 0 {
		// Wrapped: a slot from 2^32 stamps ago would read as live.
		clear(t.slots)
		t.stamp = 1
	}
}

// lookupOrInsert returns the value live under k and true, or makes v
// live under k and returns v and false. h is k's hash.
func (t *stampTable[K, V]) lookupOrInsert(k *K, h uint32, v V) (V, bool) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := uint32(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.stamp != t.stamp {
			*s = stampSlot[K, V]{key: *k, val: v, stamp: t.stamp, hash: h}
			t.n++
			return v, false
		}
		if s.hash == h && s.key == *k {
			return s.val, true
		}
	}
}

// grow doubles the table, carrying over the live slots.
func (t *stampTable[K, V]) grow() {
	old := t.slots
	t.slots = make([]stampSlot[K, V], max(64, 2*len(old)))
	mask := uint32(len(t.slots) - 1)
	for j := range old {
		s := &old[j]
		if s.stamp != t.stamp {
			continue
		}
		i := s.hash & mask
		for t.slots[i].stamp == t.stamp {
			i = (i + 1) & mask
		}
		t.slots[i] = *s
	}
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
	uses := useRewriter{f: f}
	for _, b := range f.Blocks {
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if v := simplify(in); v != nil {
				uses.replace(in, v)
				uses.remove(b, i)
				i--
				combined++
			}
		}
		combined += removeNoopStores(b, &uses)
	}
	return combined
}

// removeNoopStores deletes `store p, v` where v = load p happened earlier
// in the block with no possible write in between (always sound: the
// memory state cannot have changed).
func removeNoopStores(b *ir.Block, uses *useRewriter) int {
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
			uses.remove(b, i)
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
