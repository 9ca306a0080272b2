package ir

// Dominance and natural-loop analysis, used by LICM, unrolling, and the
// vectorizer. Both keep their per-block state in slices indexed by
// block ID (see Func.NumBlockIDs); a block made after the analysis ran,
// or one of another function, is simply not in them.

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
}

// ComputeDom builds the dominator tree with the iterative algorithm
// (Cooper-Harvey-Kennedy).
func ComputeDom(f *Func) *DomTree {
	dt := &DomTree{fn: f, order: make([]int32, f.NumBlockIDs())}
	for i := range dt.order {
		dt.order[i] = -1
	}
	entry := f.Entry()
	if entry == nil {
		return dt
	}
	dt.rpo = reversePostorder(f, entry, dt.order)
	for i, b := range dt.rpo {
		dt.order[b.ID] = int32(i)
	}

	preds := f.Preds()
	dt.idom = make([]int32, len(dt.rpo))
	for i := range dt.idom {
		dt.idom[i] = -1
	}
	dt.idom[0] = 0
	changed := true
	for changed {
		changed = false
		for i, b := range dt.rpo[1:] {
			newIdom := int32(-1)
			for _, p := range preds.Of(b) {
				pi := dt.order[p.ID]
				if pi < 0 || dt.idom[pi] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = pi
				} else {
					newIdom = dt.intersect(pi, newIdom)
				}
			}
			if newIdom >= 0 && dt.idom[i+1] != newIdom {
				dt.idom[i+1] = newIdom
				changed = true
			}
		}
	}
	return dt
}

// reversePostorder lists the blocks reachable from entry in reverse
// postorder of a depth-first walk that takes successors in order. seen
// is scratch indexed by block ID, negative on entry.
func reversePostorder(f *Func, entry *Block, seen []int32) []*Block {
	type frame struct {
		b    *Block
		next int
	}
	var post []*Block
	stack := []frame{{b: entry}}
	seen[entry.ID] = 0
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		succs := top.b.Succs()
		if top.next < len(succs) {
			s := succs[top.next]
			top.next++
			if f.owns(s) && seen[s.ID] < 0 {
				seen[s.ID] = 0
				stack = append(stack, frame{b: s})
			}
			continue
		}
		post = append(post, top.b)
		stack = stack[:len(stack)-1]
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
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
