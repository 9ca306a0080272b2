package vm

import (
	"math"

	"repro/internal/ir"
)

// Compile-time decisions over allocas and sanitizer checks (DESIGN.md
// §9). Both leave every pc, step and charged cost as it is; they only
// take work off the dispatch loop whose outcome is fixed at compile time.
//
// An alloca escapes unless every use of it, or of a pointer derived from
// it through gep bases and 64-bit converts, is a load or store address,
// a ubcheck operand or a mustnotalias operand. That is stricter than
// aa.BasicAA's rule, which lets a pointer through integer arithmetic.
//
// Both decisions hold for every program whose pointers stay in bounds of
// the objects they were derived from: out-of-bounds pointer arithmetic,
// integers cast to pointers and pointers to ended lifetimes can reach an
// alloca's address without deriving from it, and those are the
// programs where the vm and the tree-walker may part (a compile with
// plain set matches the tree-walker there too).

// noneLeft is the target of a ubcheck after which its run holds no
// undecided check: past every pc, so dispatch never enters the run.
const noneLeft = math.MaxInt32

// instrInfo is what the decisions keep per instruction ID.
type instrInfo struct {
	home  int32 // an alloca's register slot; -1 for none
	flags uint8 // an alloca's allocaEscapes and allocaNoSlot bits
	// rep holds the rep bits every sum stored to a small alloca has, and
	// load the key (loadKey) its every load shares: compileFunc converts
	// any other value it stores (see copies).
	rep, load uint8
}

// Representation bits: what compile time knows of a value that a slot
// load reads back.
const (
	// repInt: the value is never float-tagged, so a 64-bit load of it
	// converts nothing.
	repInt = 1 << iota
	// repI32 and repU32: an integer in the signed or unsigned 32-bit
	// range, which a signed or unsigned 32-bit load reads back unchanged.
	repI32
	repU32
	repAll = repInt | repI32 | repU32
)

// Alloca flags.
const (
	allocaEscapes = 1 << iota
	// allocaNoSlot: some use is not a scalar load or store address, a
	// ubcheck or a mustnotalias operand on the alloca itself, or a load
	// or store is not dominated by the alloca.
	allocaNoSlot
)

// maxLinks bounds a walk up a gep/convert chain. Well-formed IR has no
// cycles there; a walk that hits the bound turns the decisions off for
// the function.
const maxLinks = 64

// derives reports whether in passes its first operand's pointer on: a
// gep (from its base) or a convert that keeps all 64 bits.
func derives(in *ir.Instr) bool {
	return len(in.Args) > 0 && (in.Op == ir.OpGEP ||
		in.Op == ir.OpConvert && (in.Cls == ir.I64 || in.Cls == ir.Ptr))
}

// startAllocas readies the alloca tables for f, whose operands
// compileFunc then passes to classifyUse one by one before giveHomes.
// Only allocas' entries are read.
func (c *compiler) startAllocas(f *ir.Func) {
	if c.info == nil {
		c.info = make([]instrInfo, c.maxIDs)
	}
	c.info, c.farUses = c.info[:f.NumIDs()], c.farUses[:0]
	for _, a := range c.allocas {
		// A slot is zero before its first store, which every load reads
		// back unchanged.
		c.info[a.ID] = instrInfo{home: -1, rep: repAll, load: loadNone}
	}
}

// classifyUse records what in's operand k, x, an alloca or a pointer
// derived from something, does to the alloca x derives from, if any. A
// load or store that the blocks alone do not show to be dominated by its
// alloca goes to farUses.
func (c *compiler) classifyUse(in *ir.Instr, k int, x *ir.Instr) {
	r, ok := c.baseAlloca(x)
	if !ok {
		c.plainFn = true
	}
	if r == nil {
		return
	}
	switch {
	case (in.Op == ir.OpLoad || in.Op == ir.OpStore) && k == 0:
		if r.AllocSz > 8 {
			break
		}
		if dom, known := c.localDom(r, in); x != r || known && !dom {
			c.info[r.ID].flags |= allocaNoSlot
		} else if !known {
			c.farUses = append(c.farUses, in)
		}
		if x == r {
			c.noteAccess(r, in)
		}
	case in.Op == ir.OpUBCheck || in.Op == ir.OpMustNotAlias:
	case k == 0 && derives(in):
		c.info[r.ID].flags |= allocaNoSlot
	default:
		c.info[r.ID].flags |= allocaEscapes | allocaNoSlot
	}
}

// giveHomes gives a register slot, numbered from next, to every alloca
// of at most 8 bytes whose every use is a scalar load or store address,
// a ubcheck operand or a mustnotalias operand, and that dominates its
// loads and stores. It returns the register count with the slots.
//
// A slot stands for the alloca's one memory cell. The alloca still
// executes, so its address and the checks on it are unchanged. The slot
// is zero on frame entry, like the cell the alloca's first execution
// clears, and keeps its value when the alloca re-executes, like the cell
// the lazy frame allocation reuses.
func (c *compiler) giveHomes(next int32) int32 {
	for _, in := range c.farUses {
		// An alloca that lost its slot already needs no tree.
		if r := in.Args[0].(*ir.Instr); c.info[r.ID].flags&allocaNoSlot == 0 && !c.dominates(r, in) {
			c.info[r.ID].flags |= allocaNoSlot
		}
	}
	for _, a := range c.allocas {
		if a.AllocSz <= 8 && c.info[a.ID].flags&allocaNoSlot == 0 {
			c.info[a.ID].home = next
			next++
		}
	}
	return next
}

// baseAlloca returns the alloca of the function being compiled that v
// derives from, nil if none; ok is false when the chain does not end.
func (c *compiler) baseAlloca(v ir.Value) (r *ir.Instr, ok bool) {
	for range maxLinks {
		in, isInstr := v.(*ir.Instr)
		switch {
		case !isInstr || in.Op != ir.OpAlloca && !derives(in) || c.regOf(in) < 0:
			return nil, true
		case in.Op == ir.OpAlloca:
			return in, true
		}
		v = in.Args[0]
	}
	return nil, false
}

// addr encodes a load or store address: the alloca's register slot when
// it has one, else the operand.
func (c *compiler) addr(v ir.Value) int32 {
	if in, ok := v.(*ir.Instr); ok && in.Op == ir.OpAlloca && c.firstHome < int32(c.fc.numRegs) && c.regOf(in) >= 0 {
		if h := c.info[in.ID].home; h >= 0 {
			return h
		}
	}
	return c.operand(v)
}

// isHome reports whether register r is a register slot.
func (c *compiler) isHome(r int32) bool { return r >= c.firstHome && r < int32(c.fc.numRegs) }

// slotForm gives in, compiled from the IR instruction src, its
// register-slot form when the memory access it starts with (or, for
// iadd_store, ends with) goes through a register slot. A store to a slot
// whose loads copy it (copies) converts the value as they would, unless
// the value is already in that form.
func (c *compiler) slotForm(in *instr, src *ir.Instr) {
	switch {
	case in.op == opLoad && c.isHome(in.a):
		in.op = opLoadSlot
	case in.op == opStore && c.isHome(in.a):
		in.op = opStoreSlot
		r := src.Args[0].(*ir.Instr)
		if c.copies(r) && !c.fits(r, c.valueRep(src.Args[1], maxRepDepth)) {
			cls, unsigned := ir.I64, false
			if k := c.info[r.ID].load; k != loadInt {
				cls, unsigned = ir.I32, k == loadU32
			}
			*in = instr{op: opStoreConvSlot, dst: in.a, a: in.b, cls: uint8(cls), unsigned: unsigned}
		}
	case in.op == opLoadConvGEP && c.isHome(in.a):
		in.op = opLoadConvGEPSlot
	case in.op == opLoadCmpBr && c.isHome(in.a):
		in.op = opLoadCmpBrSlot
	case in.op == opIAddStore && c.isHome(in.c):
		in.op = opIAddStoreSlot
	case in.op == opLoadConvGEPLoad && c.isHome(in.a):
		in.op = opLoadConvGEPLoadSlot
	case in.op == opLoadConvGEPStore && c.isHome(in.a):
		in.op = opLoadConvGEPStoreSlot
	}
}

// dominates reports whether def has executed, in the current activation,
// whenever use executes: def comes first in a shared block (value
// registers are numbered in layout order), or def's block dominates
// use's. An unreachable use never executes, so anything dominates it.
func (c *compiler) dominates(def, use *ir.Instr) bool {
	if dom, known := c.localDom(def, use); known {
		return dom
	}
	if !c.domOK {
		c.dom.Reserve(c.maxBlocks)
		c.dom.Compute(c.fn)
		c.domOK = true
	}
	ub := use.Block()
	return !c.dom.Reachable(ub) || c.dom.Dominates(def.Block(), ub)
}

// localDom answers dominates from the two blocks alone when it can: in
// a shared block, or with def in the entry block.
func (c *compiler) localDom(def, use *ir.Instr) (dom, known bool) {
	switch db := def.Block(); {
	case db == use.Block():
		return c.slot[def.ID] < c.slot[use.ID], true
	case db == c.fn.Entry():
		return true, true
	}
	return false, false
}

// chainRoot walks v, an operand of user, up its gep/convert chain to the
// value the chain starts from. off sums the chain's offsets and is exact
// when known; ok is false unless every instruction on the chain, the
// root included, is of the function and dominates its user, so that the
// values user reads are the ones the chain computed from the root's
// current value.
func (c *compiler) chainRoot(v ir.Value, user *ir.Instr) (root ir.Value, off int64, known, ok bool) {
	known = true
	for range maxLinks {
		in, isInstr := v.(*ir.Instr)
		if !isInstr {
			return v, off, known, v != nil
		}
		if c.regOf(in) < 0 || !c.dominates(in, user) {
			return nil, 0, false, false
		}
		if !derives(in) {
			return in, off, known, true
		}
		if in.Op == ir.OpGEP {
			var idx int64
			if len(in.Args) > 1 {
				k, isConst := in.Args[1].(*ir.Const)
				if isConst && !k.Cls.IsFloat() {
					idx = k.I
				} else {
					known = false
				}
			}
			off += idx*int64(in.Scale) + int64(in.Off)
		}
		user, v = in, in.Args[0]
	}
	return nil, 0, false, false
}

// decided reports whether the ubcheck u can never see equal operands.
// Rooting both through their gep/convert chains, that holds when
//   - both have one root, every index is constant and the offsets
//     differ (exact: both read the root's one value);
//   - the roots are two distinct identified objects, allocas or globals;
//   - one root is an alloca that does not escape, and the other differs.
func (c *compiler) decided(u *ir.Instr) bool {
	if c.plain || c.plainFn || len(u.Args) != 2 {
		return false
	}
	rx, ox, kx, okx := c.chainRoot(u.Args[0], u)
	ry, oy, ky, oky := c.chainRoot(u.Args[1], u)
	if !okx || !oky {
		return false
	}
	if c.sameRoot(rx, ry) {
		return kx && ky && ox != oy
	}
	ax, isAx := rx.(*ir.Instr)
	ay, isAy := ry.(*ir.Instr)
	isAx = isAx && ax.Op == ir.OpAlloca
	isAy = isAy && ay.Op == ir.OpAlloca
	_, isGx := rx.(*ir.Global)
	_, isGy := ry.(*ir.Global)
	if (isAx || isGx) && (isAy || isGy) {
		return true
	}
	return isAx && c.info[ax.ID].flags&allocaEscapes == 0 || isAy && c.info[ay.ID].flags&allocaEscapes == 0
}

// sameRoot reports whether two chain roots are one value; globals are
// compared by address.
func (c *compiler) sameRoot(x, y ir.Value) bool {
	gx, isGx := x.(*ir.Global)
	gy, isGy := y.(*ir.Global)
	if isGx && isGy {
		return c.p.globals[gx.Name] == c.p.globals[gy.Name]
	}
	return x == y
}

// linkChecks links each run of ubchecks (consecutive pcs, always within
// one segment): a check's target is the first check of its run, at or
// after it, that compile time did not decide (noneLeft when there is
// none), and its elseT is the run's last pc. Dispatch enters a run at
// target and ubcheckRun walks on through the next pc's target, so only
// undecided checks are evaluated.
func (c *compiler) linkChecks(code []instr, pcIR []*ir.Instr) {
	last, next := int32(-1), int32(noneLeft)
	for pc := len(code) - 1; pc >= 0; pc-- {
		in := &code[pc]
		if in.op != opUBCheck {
			last = -1
			continue
		}
		if last < 0 {
			last, next = int32(pc), noneLeft
		}
		if !c.decided(pcIR[pc]) {
			next = int32(pc)
		}
		in.target, in.elseT = next, last
	}
}

// maxRepDepth bounds valueRep's walk through integer arithmetic.
const maxRepDepth = 3

// valueRep returns the rep bits that hold for every value v takes at
// run time. Only what its op guarantees counts: a parameter or a call
// result may carry any tag, and integer arithmetic yields a float tag
// when an operand carries one.
func (c *compiler) valueRep(v ir.Value, depth int) uint8 {
	switch x := v.(type) {
	case *ir.Const:
		if x.Cls.IsFloat() {
			return 0
		}
		return repInt | rangeRep(x.I)
	case *ir.Global, *ir.FuncRef:
		return repInt
	case *ir.Instr:
		if c.regOf(x) < 0 {
			return 0
		}
		switch x.Op {
		case ir.OpCmp:
			return repAll
		case ir.OpGEP, ir.OpAlloca:
			return repInt
		case ir.OpLoad, ir.OpConvert, ir.OpNot:
			if !x.Cls.IsFloat() {
				return repInt | classRep(x.Cls, x.Unsigned)
			}
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
			ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr:
			if !x.Cls.IsFloat() && depth > 0 && len(x.Args) == 2 &&
				c.valueRep(x.Args[0], depth-1)&c.valueRep(x.Args[1], depth-1)&repInt != 0 {
				return repInt | classRep(x.Cls, x.Unsigned)
			}
		case ir.OpSelect:
			if depth > 0 && len(x.Args) == 3 {
				return c.valueRep(x.Args[1], depth-1) & c.valueRep(x.Args[2], depth-1)
			}
		}
	}
	return 0
}

// classRep is the range bits of an integer truncated to cls.
func classRep(cls ir.Class, unsigned bool) uint8 {
	switch {
	case cls == ir.I8 || cls == ir.I16:
		if unsigned {
			return repI32 | repU32
		}
		return repI32
	case cls == ir.I32 && unsigned:
		return repU32
	case cls == ir.I32:
		return repI32
	}
	return 0
}

// rangeRep is the range bits of the integer x.
func rangeRep(x int64) uint8 {
	var r uint8
	if x == int64(int32(x)) {
		r |= repI32
	}
	if x == int64(uint32(x)) {
		r |= repU32
	}
	return r
}

// Load keys: the conversion a slot load applies to what it reads.
const (
	loadNone  = iota // no load yet
	loadInt          // 64-bit integer or pointer
	loadI32          // signed 32-bit
	loadU32          // unsigned 32-bit
	loadMixed        // loads of more than one key, or of another class
)

// loadKey is the load key of a load of class cls.
func loadKey(cls ir.Class, unsigned bool) uint8 {
	switch {
	case cls == ir.I64 || cls == ir.Ptr:
		return loadInt
	case cls == ir.I32 && unsigned:
		return loadU32
	case cls == ir.I32:
		return loadI32
	}
	return loadMixed
}

// noteAccess records what the load or store in does to the small alloca
// r it addresses: a load's key, and the rep bits of a stored sum, which
// may fuse into iadd_store and so cannot be converted (see copies).
func (c *compiler) noteAccess(r, in *ir.Instr) {
	info := &c.info[r.ID]
	switch {
	case in.Op == ir.OpLoad:
		if k := loadKey(in.Cls, in.Unsigned); info.load == loadNone {
			info.load = k
		} else if info.load != k {
			info.load = loadMixed
		}
	case len(in.Args) > 1:
		if x, ok := in.Args[1].(*ir.Instr); ok && x.Op == ir.OpAdd {
			info.rep &= c.valueRep(x, maxRepDepth)
		}
	}
}

// copies reports whether every load of the slot alloca r reads its slot's
// value back unchanged. That holds when all of them share one load key
// and every value stored to r is already in that key's form: the stored
// sums by their rep bits, every other value by conversion, because its
// slot store then converts what it stores as the loads would (slotForm).
func (c *compiler) copies(r *ir.Instr) bool {
	k := c.info[r.ID].load
	return k != loadNone && k != loadMixed && c.fits(r, c.info[r.ID].rep)
}

// fits reports whether values of rep bits rep are in the form the loads
// of the slot alloca r read back, so a store of one needs no conversion.
func (c *compiler) fits(r *ir.Instr, rep uint8) bool {
	switch c.info[r.ID].load {
	case loadI32:
		return rep&(repInt|repI32) == repInt|repI32
	case loadU32:
		return rep&(repInt|repU32) == repInt|repU32
	}
	return rep&repInt != 0
}

// seal finishes the last pc of the block being compiled, in a function
// with register slots, once no more instructions can fuse into it. An
// access through a register slot takes its slot form (slotForm), and
// then each slot load right before the pc, in its block, folds into it
// when the pc is the load's only reader, on the load's source line, may
// take one more fold (maxFolds), and the load copies its slot (copies):
// the pc names the slot register in place of the load's and takes the
// load's step as its first, so nothing executes the load. The reader
// runs right after the load would have, so it sees the same slot value,
// and it reads its operands before it writes a slot.
func (c *compiler) seal() {
	n := len(c.code)
	if n <= c.blockStart {
		return
	}
	c.slotForm(&c.code[n-1], c.pcIR[n-1])
	for folded := 0; n-2 >= c.blockStart && c.foldInto(n-2, n-1, folded); folded++ {
		// The merged pc keeps the load's first step.
		c.code[n-2], c.pcIR[n-2] = c.code[n-1], c.pcIR[n-1]
		n--
		c.code, c.pcIR, c.steps = c.code[:n], c.pcIR[:n], c.steps[:n]
	}
}

// foldInto folds the pc at l, if it is a slot load that may fold, into
// the pc at r, which has folded the given number of loads already,
// rewriting r's operands, and reports whether it did.
func (c *compiler) foldInto(l, r, folded int) bool {
	ld, in := c.pcIR[l], &c.code[r]
	if c.code[l].op != opLoadSlot || c.pcIR[r] == nil || c.uses[ld.ID] != 1 ||
		folded >= int(maxFolds[in.op]) || !sameLine(ld, c.pcIR[r]) ||
		!c.copies(ld.Args[0].(*ir.Instr)) {
		return false
	}
	from, to := c.code[l].dst, c.code[l].a
	found := false
	for _, f := range []*int32{&in.a, &in.b, &in.c} {
		if *f == from {
			*f, found = to, true
		}
	}
	return found
}

// fallThrough makes the br that closes the block whose code starts at pc
// start a trailing step of the pc before it, when it jumps to next, the
// block laid out after it, and both lie on one source line. The pc then
// falls into next's code; the br executes nothing, but is charged, so
// the segment runs on into next.
func (c *compiler) fallThrough(start int, next *ir.Block) {
	n := len(c.code)
	if n-2 < start || c.code[n-1].op != opBr || c.code[n-1].target != int32(next.ID) ||
		!trailing[c.code[n-2].op] || !sameLine(c.pcIR[n-2], c.pcIR[n-1]) {
		return
	}
	c.code, c.pcIR, c.steps = c.code[:n-1], c.pcIR[:n-1], c.steps[:n-1]
}
