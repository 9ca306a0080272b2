package passes

import "repro/internal/ir"

// UseLists is the function's def-use relation in compressed-sparse-row
// form, indexed by instruction ID: the users of the instruction with ID
// i are users[off[i]:off[i+1]], in block order, an instruction listed
// once per operand slot that names it. It relies on the ir.Func.NumIDs
// invariant (IDs unique and below NumIDs) that Verify checks.
type UseLists struct {
	off   []int32
	users []*ir.Instr
}

// buildUseLists computes f's use lists in two sweeps: the first counts
// each instruction's uses, the second fills them in.
func buildUseLists(f *ir.Func) UseLists {
	n := f.NumIDs()
	// Counting into off[id+2] and filling through off[id+1] leaves
	// off[id] at the start of id's users and off[id+1] at their end.
	off := make([]int32, n+1)
	total := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if x, ok := a.(*ir.Instr); ok {
					total++
					if x.ID+2 <= n {
						off[x.ID+2]++
					}
				}
			}
		}
	}
	for i := 2; i <= n; i++ {
		off[i] += off[i-1]
	}
	users := make([]*ir.Instr, total)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if x, ok := a.(*ir.Instr); ok {
					users[off[x.ID+1]] = in
					off[x.ID+1]++
				}
			}
		}
	}
	return UseLists{off: off, users: users}
}

// Of returns the instructions using in, in block order.
func (u UseLists) Of(in *ir.Instr) []*ir.Instr {
	return u.users[u.off[in.ID]:u.off[in.ID+1]]
}

// useRewriter replaces all uses of one instruction at a time through
// use lists instead of a whole-function walk, for passes (earlycse,
// instcombine) that eliminate instructions one by one and rewrite
// their uses immediately. The lists are built at the first replacement
// and kept current after it: an operand rewrite records the new user
// in an overflow chain, and a removed instruction is marked dead so
// that, exactly like the whole-function walk, later replacements never
// rewrite it. The pass must create no instructions while it holds one.
type useRewriter struct {
	f    *ir.Func
	base UseLists
	dead []bool // nil until the lists are built
	// more[id] is the 1-based index into links of the head of id's
	// overflow chain (0 = empty).
	more  []int32
	links []useLink
}

type useLink struct {
	user *ir.Instr
	next int32
}

func (r *useRewriter) build() {
	r.base = buildUseLists(r.f)
	r.dead = make([]bool, r.f.NumIDs())
	r.more = make([]int32, r.f.NumIDs())
}

// record notes that user now names v as an operand.
func (r *useRewriter) record(user *ir.Instr, v ir.Value) {
	if x, ok := v.(*ir.Instr); ok {
		r.links = append(r.links, useLink{user: user, next: r.more[x.ID]})
		r.more[x.ID] = int32(len(r.links))
	}
}

// replace rewrites every use of old in the function's live instructions
// to new.
func (r *useRewriter) replace(old *ir.Instr, new ir.Value) {
	if r.dead == nil {
		r.build()
	}
	for _, u := range r.base.Of(old) {
		r.rewrite(u, old, new)
	}
	for l := r.more[old.ID]; l != 0; l = r.links[l-1].next {
		r.rewrite(r.links[l-1].user, old, new)
	}
}

func (r *useRewriter) rewrite(u, old *ir.Instr, new ir.Value) {
	if r.dead[u.ID] {
		return
	}
	hit := false
	for i, a := range u.Args {
		if a == old {
			u.Args[i] = new
			hit = true
		}
	}
	if hit {
		r.record(u, new)
	}
}

// setArgs replaces in's operand list.
func (r *useRewriter) setArgs(in *ir.Instr, args ...ir.Value) {
	in.Args = args
	if r.dead != nil {
		for _, a := range args {
			r.record(in, a)
		}
	}
}

// remove deletes b.Instrs[i].
func (r *useRewriter) remove(b *ir.Block, i int) {
	if r.dead != nil {
		r.dead[b.Instrs[i].ID] = true
	}
	removeAt(b, i)
}
