package ir

import "slices"

// Dominance and natural-loop analysis, used by LICM, unrolling, the
// vectorizer and the vm's compile-time decisions. Both keep their
// per-block state in slices indexed by block ID (see
// Func.NumBlockIDs); a block made after the analysis ran, or one of
// another function, is simply not in them.

// DomTree holds immediate dominators for a function's blocks.
type DomTree struct {
	fn *Func
	// order is the reverse-postorder number of each reachable block by
	// block ID, -1 for a block not reached from the entry.
	order []int32
	// idom is the immediate dominator's reverse-postorder number, by
	// reverse-postorder number; the entry's is its own.
	idom []int32
	// rpo lists the reachable blocks in reverse postorder.
	rpo []*Block

	// Scratch that Compute reuses: the depth-first walk's stack, and the
	// predecessors' numbers of the block numbered i,
	// preds[start[i]:start[i+1]].
	stack        []domFrame
	start, preds []int32
}

// domFrame is a block on the depth-first walk's stack, with the index
// of its next successor to visit.
type domFrame struct {
	b    *Block
	next int
}

// succs returns b's successors in f, nil where it has fewer than two,
// without allocating.
func succs(f *Func, b *Block) [2]*Block {
	var s [2]*Block
	if t := b.Terminator(); t != nil && t.Op == OpBr {
		s[0] = t.Target
	} else if t != nil && t.Op == OpCondBr {
		s = [2]*Block{t.Then, t.Else}
	}
	for i := range s {
		if !f.owns(s[i]) {
			s[i] = nil
		}
	}
	return s
}

// ComputeDom builds the dominator tree with the iterative algorithm
// (Cooper-Harvey-Kennedy).
func ComputeDom(f *Func) *DomTree {
	dt := &DomTree{}
	dt.Compute(f)
	return dt
}

// Compute builds f's dominator tree into dt, reusing the tables of the
// tree dt held before, so one DomTree can serve function after function
// without allocating once its tables are large enough.
func (dt *DomTree) Compute(f *Func) {
	n := f.NumBlockIDs()
	dt.fn = f
	if cap(dt.order) < n {
		dt.reserveNumbers(n)
	}
	dt.order = dt.order[:n]
	for i := range dt.order {
		dt.order[i] = -1
	}
	dt.rpo = dt.rpo[:0]
	entry := f.Entry()
	if entry == nil {
		dt.idom = dt.idom[:0]
		return
	}
	// Postorder of a depth-first walk that takes successors in order,
	// reversed.
	push := func(b *Block) {
		dt.order[b.ID] = 0
		dt.stack = append(dt.stack, domFrame{b: b})
	}
	dt.stack = dt.stack[:0]
	push(entry)
	for len(dt.stack) > 0 {
		top := &dt.stack[len(dt.stack)-1]
		if top.next < 2 {
			s := succs(f, top.b)[top.next]
			top.next++ // before push, which may move the stack
			if s != nil && dt.order[s.ID] < 0 {
				push(s)
			}
			continue
		}
		dt.rpo = append(dt.rpo, top.b)
		dt.stack = dt.stack[:len(dt.stack)-1]
	}
	slices.Reverse(dt.rpo)
	for i, b := range dt.rpo {
		dt.order[b.ID] = int32(i)
	}

	// Predecessors by number, in compressed rows: count each block's
	// edges at start[i+2] and prefix-sum, so that start[i+1] is where its
	// row begins; filling bumps start[i+1] to the row's end.
	m := len(dt.rpo)
	dt.start = dt.start[:m+2]
	clear(dt.start)
	for _, b := range dt.rpo {
		for _, s := range succs(f, b) {
			if s != nil {
				dt.start[dt.order[s.ID]+2]++
			}
		}
	}
	for i := 2; i < len(dt.start); i++ {
		dt.start[i] += dt.start[i-1]
	}
	dt.preds = dt.preds[:dt.start[m+1]]
	for i, b := range dt.rpo {
		for _, s := range succs(f, b) {
			if s != nil {
				dt.preds[dt.start[dt.order[s.ID]+1]] = int32(i)
				dt.start[dt.order[s.ID]+1]++
			}
		}
	}

	dt.idom = dt.idom[:m]
	for i := range dt.idom {
		dt.idom[i] = -1
	}
	dt.idom[0] = 0
	for changed := true; changed; {
		changed = false
		for i := 1; i < m; i++ {
			newIdom := int32(-1)
			for _, p := range dt.preds[dt.start[i]:dt.start[i+1]] {
				switch {
				case dt.idom[p] < 0:
				case newIdom < 0:
					newIdom = p
				default:
					newIdom = dt.intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && dt.idom[i] != newIdom {
				dt.idom[i] = newIdom
				changed = true
			}
		}
	}
}

// Reserve sizes dt's tables for functions of up to blocks block IDs, so
// that Compute allocates nothing for them.
func (dt *DomTree) Reserve(blocks int) {
	if cap(dt.order) < blocks {
		dt.reserveNumbers(blocks)
	}
	if cap(dt.rpo) < blocks {
		dt.rpo, dt.stack = make([]*Block, 0, blocks), make([]domFrame, 0, blocks)
	}
}

// reserveNumbers allocates the four number tables for n block IDs, in
// one allocation: a block has at most two successors.
func (dt *DomTree) reserveNumbers(n int) {
	buf := make([]int32, 5*n+2)
	dt.order, dt.idom = buf[0:0:n], buf[n:n:2*n]
	dt.start, dt.preds = buf[2*n:2*n:3*n+2], buf[3*n+2:3*n+2]
}

func (dt *DomTree) intersect(a, b int32) int32 {
	for a != b {
		for a > b {
			a = dt.idom[a]
		}
		for b > a {
			b = dt.idom[b]
		}
	}
	return a
}

// num returns b's reverse-postorder number, -1 when b was not reached.
func (dt *DomTree) num(b *Block) int32 {
	if !dt.fn.owns(b) || b.ID >= len(dt.order) {
		return -1
	}
	return dt.order[b.ID]
}

// Dominates reports whether a dominates b (reflexive).
func (dt *DomTree) Dominates(a, b *Block) bool {
	if a == b {
		return true
	}
	i, j := dt.num(b), dt.num(a)
	if i < 0 || j < 0 {
		return false
	}
	// Every dominator of b has a smaller number than b.
	for i > j {
		i = dt.idom[i]
	}
	return i == j
}

// Reachable reports whether the block was reached from entry.
func (dt *DomTree) Reachable(b *Block) bool { return dt.num(b) >= 0 }

// IDom returns b's immediate dominator: the entry for the entry itself,
// nil for a block not reached from the entry.
func (dt *DomTree) IDom(b *Block) *Block {
	i := dt.num(b)
	if i < 0 {
		return nil
	}
	return dt.rpo[dt.idom[i]]
}

// Loop is a natural loop.
type Loop struct {
	Header *Block
	// Latches are the blocks with back edges to the header.
	Latches []*Block
	// Blocks is the loop body (including header) in f.Blocks order.
	Blocks []*Block
	// in is the body as a bitset over block IDs.
	in []uint64
	// Preheader is the unique out-of-loop predecessor of the header, if
	// one exists.
	Preheader *Block
	// Exits are (inLoopBlock -> outOfLoopSuccessor) edges, in body
	// order and then successor order.
	Exits [][2]*Block
	// Parent is the innermost enclosing loop, nil for top level.
	Parent *Loop
}

// Contains reports whether b is in the loop body.
func (l *Loop) Contains(b *Block) bool {
	if !l.Header.Fn.owns(b) {
		return false
	}
	w := b.ID / 64
	return w < len(l.in) && l.in[w]&(1<<(b.ID%64)) != 0
}

// add puts b in the body set, reporting whether it was new.
func (l *Loop) add(b *Block) bool {
	w, bit := b.ID/64, uint64(1)<<(b.ID%64)
	if l.in[w]&bit != 0 {
		return false
	}
	l.in[w] |= bit
	return true
}

// Depth returns the loop nesting depth (1 = outermost).
func (l *Loop) Depth() int {
	d := 1
	for p := l.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// IsInnermost reports whether no other loop in loops nests inside l.
func (l *Loop) IsInnermost(loops []*Loop) bool {
	for _, other := range loops {
		if other != l && other.Parent == l {
			return false
		}
	}
	return true
}

// FindLoops identifies the natural loops of f.
func FindLoops(f *Func, dt *DomTree) []*Loop {
	preds := f.Preds()
	words := (f.NumBlockIDs() + 63) / 64
	var loops []*Loop
	var stack []*Block
	for _, b := range f.Blocks {
		if !dt.Reachable(b) {
			continue
		}
		for _, s := range b.Succs() {
			if !dt.Dominates(s, b) {
				continue
			}
			// Back edge b -> s.
			var l *Loop
			for _, x := range loops {
				if x.Header == s {
					l = x
					break
				}
			}
			if l == nil {
				l = &Loop{Header: s, in: make([]uint64, words)}
				l.add(s)
				loops = append(loops, l)
			}
			l.Latches = append(l.Latches, b)
			// Collect body: reverse reachability from latch to header.
			if l.add(b) {
				stack = append(stack[:0], b)
			}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range preds.Of(x) {
					if l.add(p) {
						stack = append(stack, p)
					}
				}
			}
		}
	}
	// Bodies, preheaders, exits, nesting.
	for _, l := range loops {
		for _, b := range f.Blocks {
			if l.Contains(b) {
				l.Blocks = append(l.Blocks, b)
			}
		}
		var outsidePreds []*Block
		for _, p := range preds.Of(l.Header) {
			if !l.Contains(p) {
				outsidePreds = append(outsidePreds, p)
			}
		}
		if len(outsidePreds) == 1 {
			l.Preheader = outsidePreds[0]
		}
		for _, b := range l.Blocks {
			for _, s := range b.Succs() {
				if !l.Contains(s) {
					l.Exits = append(l.Exits, [2]*Block{b, s})
				}
			}
		}
	}
	for _, l := range loops {
		var best *Loop
		for _, outer := range loops {
			if outer == l || !outer.Contains(l.Header) {
				continue
			}
			if best == nil || len(outer.Blocks) < len(best.Blocks) {
				best = outer
			}
		}
		l.Parent = best
	}
	return loops
}
