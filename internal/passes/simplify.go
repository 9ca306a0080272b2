package passes

import (
	"slices"

	"repro/internal/ir"
)

// simplifyCFG removes unreachable blocks, folds constant conditional
// branches, forms selects from store diamonds (if-conversion — what lets
// the ternary bodies of minmax and MagickMax become vectorizable
// straight-line code), and merges straight-line block chains.
//
// Predecessor counts are built once per call and kept current as the
// CFG changes; removed blocks are dropped from f.Blocks in one
// compaction at the end.
func simplifyCFG(f *ir.Func) int {
	npreds := predCounts(f.PredCounts())
	changed := formSelects(f, npreds)
	// Fold constant condbrs; the arm no longer taken loses an edge.
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		target, dropped := t.Then, t.Else
		if c, ok := t.Args[0].(*ir.Const); ok && !c.Cls.IsFloat() {
			if c.I == 0 {
				target, dropped = t.Else, t.Then
			}
		} else if t.Then != t.Else {
			continue
		}
		t.Op = ir.OpBr
		t.Args = nil
		t.Target = target
		t.Then, t.Else = nil, nil
		npreds.add(f, dropped, -1)
		changed++
	}
	// Mark the blocks reachable from the entry; the rest go, taking
	// their out-edges with them.
	live := make([]bool, f.NumBlockIDs())
	stack := make([]*ir.Block, 0, len(f.Blocks))
	if e := f.Entry(); e != nil {
		live[e.ID] = true
		stack = append(stack, e)
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs() {
			if npreds.owns(f, s) && !live[s.ID] {
				live[s.ID] = true
				stack = append(stack, s)
			}
		}
	}
	for _, b := range f.Blocks {
		if !live[b.ID] {
			for _, s := range b.Succs() {
				npreds.add(f, s, -1)
			}
			changed++
		}
	}

	// Merge b -> s when b ends in an unconditional br to s and s has b as
	// its only predecessor (and s is not the entry). A merge leaves every
	// other block's predecessor count as it was: b takes over s's
	// out-edges. Merges along a chain compose to the same blocks in any
	// order, so one walk that merges each block's whole chain at once
	// gives what merging one edge per rescan gave.
	entry := f.Entry()
	// next is the block that from's br lets head absorb, or nil.
	next := func(head, from *ir.Block) *ir.Block {
		t := from.Terminator()
		if t == nil || t.Op != ir.OpBr {
			return nil
		}
		s := t.Target
		if s == entry || s == head || npreds.of(f, s) != 1 {
			return nil
		}
		return s
	}
	for _, b := range f.Blocks {
		if !live[b.ID] {
			continue
		}
		// Grow b once for its whole chain.
		extra := 0
		for s := next(b, b); s != nil; s = next(b, s) {
			extra += len(s.Instrs) - 1
		}
		b.Instrs = slices.Grow(b.Instrs, extra)
		for s := next(b, b); s != nil; s = next(b, b) {
			b.Instrs = b.Instrs[:len(b.Instrs)-1] // drop the br
			b.Instrs = append(b.Instrs, s.Instrs...)
			for _, in := range s.Instrs {
				setBlock(in, b)
			}
			s.Instrs = nil
			live[s.ID] = false
			changed++
		}
	}
	compactBlocks(f, func(b *ir.Block) bool { return live[b.ID] })
	return changed
}

// predCounts holds the number of CFG edges into each block of a
// function, indexed by block ID (ir.Func.PredCounts).
type predCounts []int32

// owns reports whether b is a block of f that the table covers.
func (c predCounts) owns(f *ir.Func, b *ir.Block) bool {
	return b != nil && b.Fn == f && uint(b.ID) < uint(len(c))
}

func (c predCounts) of(f *ir.Func, b *ir.Block) int32 {
	if !c.owns(f, b) {
		return 0
	}
	return c[b.ID]
}

func (c predCounts) add(f *ir.Func, b *ir.Block, d int32) {
	if c.owns(f, b) {
		c[b.ID] += d
	}
}

// compactBlocks keeps the blocks of f.Blocks that keep accepts, in
// order, in place.
func compactBlocks(f *ir.Func, keep func(*ir.Block) bool) {
	n := 0
	for _, b := range f.Blocks {
		if keep(b) {
			f.Blocks[n] = b
			n++
		}
	}
	clear(f.Blocks[n:])
	f.Blocks = f.Blocks[:n]
}

// formSelects converts store diamonds into selects:
//
//	A: condbr c, T, E
//	T: [speculatable], store p, v1; br J
//	E: [speculatable], store p, v2; br J
//
// becomes A: [T's and E's instrs], sel = select(c, v1, v2), store p, sel,
// br J — provided T and E are single-predecessor and contain only
// speculatable instructions plus one trailing store to the same pointer.
//
// Diamonds are formed one at a time, always the first one in f.Blocks
// order, since each takes fresh instruction IDs. npreds is kept
// current. Forming a diamond never spoils another; the only one it can
// enable is at A's predecessor, now that A ends in a br, so the walk
// starts over only when A has exactly one predecessor. The emptied arms
// are dropped at the end.
func formSelects(f *ir.Func, npreds predCounts) int {
	formed := 0
	for i := 0; i < len(f.Blocks); i++ {
		a := f.Blocks[i]
		t := a.Terminator()
		if t == nil || t.Op != ir.OpCondBr || t.Then == t.Else {
			continue
		}
		tb, eb := t.Then, t.Else
		if npreds.of(f, tb) != 1 || npreds.of(f, eb) != 1 {
			continue
		}
		ts, tok := diamondArm(tb)
		es, eok := diamondArm(eb)
		if !tok || !eok {
			continue
		}
		if ts.store.Args[0] != es.store.Args[0] {
			continue
		}
		jt, je := tb.Terminator().Target, eb.Terminator().Target
		if jt != je {
			continue
		}
		cls := ts.store.Args[1].Class()
		if es.store.Args[1].Class() != cls {
			continue
		}
		// Splice: remove A's condbr, inline both arms' pure instrs,
		// add select + store + br J.
		cond := t.Args[0]
		a.Instrs = a.Instrs[:len(a.Instrs)-1]
		for _, in := range ts.pure {
			ir.SetBlock(in, a)
			a.Instrs = append(a.Instrs, in)
		}
		for _, in := range es.pure {
			ir.SetBlock(in, a)
			a.Instrs = append(a.Instrs, in)
		}
		sel := &ir.Instr{Op: ir.OpSelect, Cls: cls,
			Args: []ir.Value{cond, ts.store.Args[1], es.store.Args[1]}, Span: ts.store.Span}
		a.Append(sel)
		st := &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{ts.store.Args[0], sel}, Span: ts.store.Span}
		a.Append(st)
		a.Append(&ir.Instr{Op: ir.OpBr, Cls: ir.Void, Target: jt, Span: ts.store.Span})
		tb.Instrs = nil
		eb.Instrs = nil
		// A -> T, A -> E, T -> J, E -> J became A -> J.
		npreds.add(f, tb, -1)
		npreds.add(f, eb, -1)
		npreds.add(f, jt, -1)
		formed++
		if npreds.of(f, a) == 1 {
			i = -1
		}
	}
	if formed > 0 {
		entry := f.Entry()
		compactBlocks(f, func(b *ir.Block) bool { return len(b.Instrs) > 0 || b == entry })
	}
	return formed
}

type armShape struct {
	pure  []*ir.Instr
	store *ir.Instr
}

// diamondArm matches a block of speculatable instructions followed by one
// store and a br.
func diamondArm(b *ir.Block) (armShape, bool) {
	var s armShape
	n := len(b.Instrs)
	if n < 2 {
		return s, false
	}
	term := b.Instrs[n-1]
	if term.Op != ir.OpBr {
		return s, false
	}
	st := b.Instrs[n-2]
	if st.Op != ir.OpStore || st.Volatile {
		return s, false
	}
	for _, in := range b.Instrs[:n-2] {
		if !isPureValueOp(in) {
			// Speculating a pure builtin call is fine, and so is a
			// non-volatile load: the execution model cannot fault on a
			// read (LLVM needs dereferenceability here; our substrate
			// guarantees it).
			if in.Op == ir.OpCall && pureBuiltin(in.Callee) {
				s.pure = append(s.pure, in)
				continue
			}
			if in.Op == ir.OpLoad && !in.Volatile {
				s.pure = append(s.pure, in)
				continue
			}
			return s, false
		}
		s.pure = append(s.pure, in)
	}
	s.store = st
	return s, true
}

// setBlock updates an instruction's block backlink after a merge.
func setBlock(in *ir.Instr, b *ir.Block) {
	// The blk field is unexported; re-appending is how external packages
	// would do it, but within the ir package boundary we provide a
	// helper.
	ir.SetBlock(in, b)
}

// dce deletes value-producing instructions with no uses and no side
// effects. mustnotalias intrinsics do not keep their operands alive (the
// paper wraps them in metadata for exactly this reason); an intrinsic
// whose operand would otherwise be dead is deleted along with it.
//
// Use counts and per-instruction flags live in slices indexed by
// instruction ID (see ir.Func.NumIDs), allocated once per call and
// rebuilt each fixpoint round; dce creates no instructions, so the
// bound holds for the whole call. An operand deleted from the function
// (a mustnotalias may still name one) keeps its ID, so it indexes the
// tables too, with a zero count and no present flag.
func dce(f *ir.Func) int {
	removed := 0
	uses := make([]int32, f.NumIDs())
	flags := make([]dceFlags, f.NumIDs())
	// present reports whether x is still in f's body: its flag is set
	// while it is, and x is f's own (IDs are unique within a function
	// only).
	present := func(x *ir.Instr) bool {
		b := x.Block()
		return b != nil && b.Fn == f && uint(x.ID) < uint(len(flags)) && flags[x.ID]&dcePresent != 0
	}
	for {
		clear(uses)
		clear(flags)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				flags[in.ID] |= dcePresent
				if in.Op == ir.OpAlloca {
					flags[in.ID] |= dceStoreOnly
				}
			}
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpMustNotAlias {
					continue // metadata: not a real use
				}
				for ai, a := range in.Args {
					if x, ok := a.(*ir.Instr); ok {
						uses[x.ID]++
						if !(in.Op == ir.OpStore && ai == 0) {
							flags[x.ID] &^= dceStoreOnly
						}
					}
				}
			}
		}
		changed := false
		for _, b := range f.Blocks {
			for i := 0; i < len(b.Instrs); i++ {
				in := b.Instrs[i]
				unused := uses[in.ID] == 0
				dead := false
				switch {
				case isPureValueOp(in) && unused:
					dead = true
				case in.Op == ir.OpLoad && !in.Volatile && unused:
					dead = true
				case in.Op == ir.OpAlloca && unused:
					dead = true
				case in.Op == ir.OpStore && !in.Volatile:
					p, ok := in.Args[0].(*ir.Instr)
					dead = ok && flags[p.ID]&dceStoreOnly != 0
				case in.Op == ir.OpAlloca:
					// A store-only slot is deleted together with its
					// stores on the next round.
				case in.Op == ir.OpVecLoad && unused:
					dead = true
				case in.Op == ir.OpMustNotAlias:
					// Remove intrinsics whose operands are gone from the
					// computation (only referenced by intrinsics).
					a0, ok0 := in.Args[0].(*ir.Instr)
					a1, ok1 := in.Args[1].(*ir.Instr)
					if (ok0 && uses[a0.ID] == 0 && !present(a0)) ||
						(ok1 && uses[a1.ID] == 0 && !present(a1)) {
						dead = true
					}
				}
				if dead {
					removeAt(b, i)
					flags[in.ID] &^= dcePresent
					i--
					removed++
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return removed
}

// dceFlags are dce's per-instruction bits.
type dceFlags uint8

const (
	// dcePresent: the instruction is in the function body.
	dcePresent dceFlags = 1 << iota
	// dceStoreOnly: an alloca used exclusively as a store target, so
	// both the stores and the slot are dead.
	dceStoreOnly
)
