package ir

// CloneFunc deep-copies a function body: fresh Block and Instr objects
// with argument and branch-target references remapped into the clone.
// Module-level values (globals, constants, function references) and the
// function's Param objects are shared — passes never mutate them, and
// sharing preserves the pointer identities alias analysis keys on.
//
// The parallel pass scheduler uses clones as immutable pre-pipeline
// snapshots: when a caller inlines a callee that the sequential pipeline
// would not have optimized yet, it splices the snapshot body, so the
// result is byte-identical to a sequential run regardless of how the
// worker pool interleaves functions.
func CloneFunc(f *Func) *Func {
	nf := &Func{
		Name:      f.Name,
		Params:    f.Params,
		Ret:       f.Ret,
		ReadNone:  f.ReadNone,
		nextID:    f.nextID,
		nextBlkID: f.nextBlkID,
	}
	blockMap := make(map[*Block]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		nb := &Block{ID: b.ID, Name: b.Name, Fn: nf}
		blockMap[b] = nb
		nf.Blocks = append(nf.Blocks, nb)
	}
	instrMap := make(map[*Instr]*Instr)
	for _, b := range f.Blocks {
		nb := blockMap[b]
		nb.Instrs = make([]*Instr, 0, len(b.Instrs))
		for _, in := range b.Instrs {
			cl := &Instr{
				ID: in.ID, Op: in.Op, Cls: in.Cls,
				Name: in.Name, AllocSz: in.AllocSz,
				Scale: in.Scale, Off: in.Off, Pred: in.Pred,
				Callee: in.Callee, Width: in.Width, VecOp: in.VecOp,
				Unsigned: in.Unsigned, Volatile: in.Volatile,
				Meta: in.Meta, Span: in.Span, blk: nb,
			}
			instrMap[in] = cl
			nb.Instrs = append(nb.Instrs, cl)
		}
	}
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			cl := blockMap[b].Instrs[i]
			if len(in.Args) > 0 {
				cl.Args = make([]Value, len(in.Args))
				for ai, a := range in.Args {
					if ia, ok := a.(*Instr); ok {
						if m, ok := instrMap[ia]; ok {
							cl.Args[ai] = m
							continue
						}
					}
					cl.Args[ai] = a
				}
			}
			if in.Target != nil {
				cl.Target = blockMap[in.Target]
			}
			if in.Then != nil {
				cl.Then = blockMap[in.Then]
			}
			if in.Else != nil {
				cl.Else = blockMap[in.Else]
			}
		}
	}
	return nf
}
