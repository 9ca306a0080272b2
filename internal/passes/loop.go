package passes

import (
	"repro/internal/ir"
)

// canonLoop is the canonical counted-loop shape produced by our
// structured lowering after LICM/CSE:
//
//	header: iv = load A; c = cmp lt iv, limit; condbr c, body, exit
//	body:   ... ; iv' = load A; iv2 = add iv', 1; store A, iv2; br header
//
// with a single in-loop body block and an invariant limit.
type canonLoop struct {
	l        *ir.Loop
	header   *ir.Block
	body     *ir.Block
	exit     *ir.Block
	ivAlloca *ir.Instr
	ivLoadH  *ir.Instr
	cmp      *ir.Instr
	limit    ir.Value
	// limitIncl marks a `<=` loop: the effective exclusive bound is
	// limit+1.
	limitIncl bool
	incStore  *ir.Instr
	incAdd    *ir.Instr
	ivCls     ir.Class
}

// recognize matches l against the canonical shape.
func recognize(f *ir.Func, l *ir.Loop) (*canonLoop, bool) {
	if l.Preheader == nil || len(l.Blocks) != 2 || len(l.Latches) != 1 {
		return nil, false
	}
	h := l.Header
	body := l.Latches[0]
	if body == h || !l.Contains(body) {
		return nil, false
	}
	// Header: load, cmp, condbr (allow leading pure instrs).
	n := len(h.Instrs)
	if n < 3 {
		return nil, false
	}
	term := h.Instrs[n-1]
	if term.Op != ir.OpCondBr {
		return nil, false
	}
	cmp, ok := term.Args[0].(*ir.Instr)
	if !ok || cmp.Op != ir.OpCmp || (cmp.Pred != ir.Lt && cmp.Pred != ir.Le) {
		return nil, false
	}
	ivLoad, ok := cmp.Args[0].(*ir.Instr)
	if !ok || ivLoad.Op != ir.OpLoad || ivLoad.Block() != h {
		return nil, false
	}
	ivAlloca, ok := ivLoad.Args[0].(*ir.Instr)
	if !ok || ivAlloca.Op != ir.OpAlloca || ivAlloca.AllocSz > 8 {
		return nil, false
	}
	limit := cmp.Args[1]
	if definedInLoop(l, limit) {
		return nil, false
	}
	if term.Then != body || l.Contains(term.Else) {
		return nil, false
	}
	// All other header instructions must be speculatable or the iv load.
	for _, in := range h.Instrs[:n-1] {
		if in == ivLoad || in == cmp {
			continue
		}
		if !isPureValueOp(in) && in.Op != ir.OpMustNotAlias {
			return nil, false
		}
	}
	// Body: ends br header; exactly one store to ivAlloca, storing
	// add(load ivAlloca, 1).
	bt := body.Terminator()
	if bt == nil || bt.Op != ir.OpBr || bt.Target != h {
		return nil, false
	}
	var incStore, incAdd *ir.Instr
	for _, in := range body.Instrs {
		if in.Op == ir.OpStore && in.Args[0] == ivAlloca {
			if incStore != nil {
				return nil, false
			}
			incStore = in
		}
	}
	if incStore == nil {
		return nil, false
	}
	add, ok := incStore.Args[1].(*ir.Instr)
	if !ok || add.Op != ir.OpAdd {
		return nil, false
	}
	one, ok := add.Args[1].(*ir.Const)
	if !ok || one.Cls.IsFloat() || one.I != 1 {
		return nil, false
	}
	ld, ok := add.Args[0].(*ir.Instr)
	if !ok || ld.Op != ir.OpLoad || ld.Args[0] != ivAlloca {
		return nil, false
	}
	incAdd = add
	return &canonLoop{
		l: l, header: h, body: body, exit: term.Else,
		ivAlloca: ivAlloca, ivLoadH: ivLoad, cmp: cmp, limit: limit,
		limitIncl: cmp.Pred == ir.Le,
		incStore:  incStore, incAdd: incAdd, ivCls: ivLoad.Cls,
	}, true
}

// cloneInto clones body instructions (excluding the terminator) into
// dst, remapping intra-body values. mustnotalias intrinsics are cloned
// too — this is why the paper's "# final preds" can exceed the initial
// count after unrolling/inlining.
func cloneInto(dst *ir.Block, body *ir.Block, remap map[ir.Value]ir.Value) {
	for _, in := range body.Instrs {
		if in.IsTerminator() {
			continue
		}
		cl := &ir.Instr{
			Op: in.Op, Cls: in.Cls, Name: in.Name, AllocSz: in.AllocSz,
			Scale: in.Scale, Off: in.Off, Pred: in.Pred, Callee: in.Callee,
			Target: in.Target, Then: in.Then, Else: in.Else, Width: in.Width,
			VecOp: in.VecOp, Unsigned: in.Unsigned, Volatile: in.Volatile,
			Meta: in.Meta, Span: in.Span,
		}
		cl.Args = make([]ir.Value, len(in.Args))
		for i, a := range in.Args {
			if r, ok := remap[a]; ok {
				cl.Args[i] = r
			} else {
				cl.Args[i] = a
			}
		}
		dst.Append(cl)
		remap[in] = cl
	}
}

// unrollLoops unrolls canonical innermost loops by the given factor,
// keeping the original loop as the remainder. The mustnotalias
// intrinsics of the body are re-cloned per copy (this is why the paper's
// "# final preds" can exceed "# initial preds").
func unrollLoops(f *ir.Func, am *AnalysisManager, factor int) int {
	if factor < 2 {
		return 0
	}
	tel := am.Telemetry()
	loops := am.Loops()
	unrolled := 0
	for _, l := range loops {
		if !l.IsInnermost(loops) {
			continue
		}
		cl, ok := recognize(f, l)
		if !ok || loopAlreadyTransformed(cl) {
			continue
		}
		// Skip already-vectorized or huge bodies.
		if len(cl.body.Instrs) > 40 || hasVectorOps(cl.body) {
			continue
		}
		buildUnrolledLoop(f, cl, factor)
		unrolled++
		emitRemark(tel, nil, "unroll", "LoopUnrolled", f.Name, cl.header.Name)
	}
	return unrolled
}

// loopAlreadyTransformed recognizes loops that are themselves the product
// of unrolling/vectorization, or the scalar remainders those transforms
// leave behind; transforming them again would compound indefinitely
// across pipeline iterations.
func loopAlreadyTransformed(cl *canonLoop) bool {
	names := []string{cl.header.Name}
	if cl.l.Preheader != nil {
		names = append(names, cl.l.Preheader.Name)
	}
	for _, n := range names {
		if hasPrefix(n, "unroll.") || hasPrefix(n, "vec.") {
			return true
		}
	}
	return false
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

func hasVectorOps(b *ir.Block) bool {
	for _, in := range b.Instrs {
		switch in.Op {
		case ir.OpVecLoad, ir.OpVecStore, ir.OpVecBin, ir.OpVecSplat,
			ir.OpVecReduce, ir.OpVecSelect, ir.OpVecCall:
			return true
		}
	}
	return false
}

// emitBlockCountSplit inserts, before pre's terminator, the computation
//
//	main = iv0 + ((limit - iv0) / factor) * factor
//
// clamped to iv0 when negative, and returns (iv0, mainLimit).
func emitBlockCountSplit(pre *ir.Block, cl *canonLoop, factor int) (ir.Value, ir.Value) {
	cls := cl.ivCls
	csp := cl.cmp.Span // trip-count math derives from the loop condition
	iv0 := &ir.Instr{Op: ir.OpLoad, Cls: cls, Args: []ir.Value{cl.ivAlloca}, Span: csp}
	insertBeforeTerm(pre, iv0)
	limit := cl.limit
	if cl.limitIncl {
		// `iv <= limit` iterates up to the exclusive bound limit+1.
		incl := &ir.Instr{Op: ir.OpAdd, Cls: cls, Args: []ir.Value{limit, ir.ConstInt(cls, 1)}, Span: csp}
		insertBeforeTerm(pre, incl)
		limit = incl
	}
	span := &ir.Instr{Op: ir.OpSub, Cls: cls, Args: []ir.Value{limit, iv0}, Span: csp}
	insertBeforeTerm(pre, span)
	q := &ir.Instr{Op: ir.OpDiv, Cls: cls, Args: []ir.Value{span, ir.ConstInt(cls, int64(factor))}, Span: csp}
	insertBeforeTerm(pre, q)
	mul := &ir.Instr{Op: ir.OpMul, Cls: cls, Args: []ir.Value{q, ir.ConstInt(cls, int64(factor))}, Span: csp}
	insertBeforeTerm(pre, mul)
	main := &ir.Instr{Op: ir.OpAdd, Cls: cls, Args: []ir.Value{iv0, mul}, Span: csp}
	insertBeforeTerm(pre, main)
	// Negative span guard: main = select(span < 0, iv0, main).
	neg := &ir.Instr{Op: ir.OpCmp, Cls: ir.I32, Pred: ir.Lt, Args: []ir.Value{span, ir.ConstInt(cls, 0)}, Span: csp}
	insertBeforeTerm(pre, neg)
	clamped := &ir.Instr{Op: ir.OpSelect, Cls: cls, Args: []ir.Value{neg, iv0, main}, Span: csp}
	insertBeforeTerm(pre, clamped)
	return iv0, clamped
}

// buildUnrolledLoop splices an unrolled main loop before the original
// (which becomes the remainder loop).
func buildUnrolledLoop(f *ir.Func, cl *canonLoop, factor int) {
	pre := cl.l.Preheader
	_, mainLimit := emitBlockCountSplit(pre, cl, factor)

	uheader := f.NewBlock("unroll.header")
	ubody := f.NewBlock("unroll.body")

	// Retarget preheader to the unrolled header.
	retarget(pre.Terminator(), cl.header, uheader)

	ivL := uheader.Append(&ir.Instr{Op: ir.OpLoad, Cls: cl.ivCls, Args: []ir.Value{cl.ivAlloca}, Span: cl.ivLoadH.Span})
	c := uheader.Append(&ir.Instr{Op: ir.OpCmp, Cls: ir.I32, Pred: ir.Lt, Unsigned: cl.cmp.Unsigned,
		Args: []ir.Value{ivL, mainLimit}, Span: cl.cmp.Span})
	uheader.Append(&ir.Instr{Op: ir.OpCondBr, Cls: ir.Void, Args: []ir.Value{c},
		Then: ubody, Else: cl.header, Span: cl.cmp.Span})

	for k := 0; k < factor; k++ {
		remap := map[ir.Value]ir.Value{}
		cloneInto(ubody, cl.body, remap)
	}
	ubody.Append(&ir.Instr{Op: ir.OpBr, Cls: ir.Void, Target: uheader, Span: cl.cmp.Span})
}

func retarget(term *ir.Instr, from, to *ir.Block) {
	if term == nil {
		return
	}
	if term.Target == from {
		term.Target = to
	}
	if term.Then == from {
		term.Then = to
	}
	if term.Else == from {
		term.Else = to
	}
}
