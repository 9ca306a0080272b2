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
}

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
		c.info[a.ID] = instrInfo{home: -1}
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

// slotForm is in's op in its register-slot form when the memory access
// it starts with (or, for iadd_store, ends with) goes through a register
// slot, otherwise in's op.
func (c *compiler) slotForm(in *instr) opcode {
	switch {
	case in.op == opLoad && c.isHome(in.a):
		return opLoadSlot
	case in.op == opStore && c.isHome(in.a):
		return opStoreSlot
	case in.op == opLoadConvGEP && c.isHome(in.a):
		return opLoadConvGEPSlot
	case in.op == opLoadCmpBr && c.isHome(in.a):
		return opLoadCmpBrSlot
	case in.op == opIAddStore && c.isHome(in.c):
		return opIAddStoreSlot
	}
	return in.op
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
