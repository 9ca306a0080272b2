// Package irgen lowers the C-subset AST to the backend IR with a fixed
// (deterministic, left-to-right) order of evaluation — exactly what the
// paper observes all production compilers do — and emits the
// must-not-alias predicates computed by the OOE analysis as mustnotalias
// intrinsic instructions referencing the lowered pointer values.
package irgen

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/ctypes"
	"repro/internal/ir"
	"repro/internal/ooe"
	"repro/internal/sema"
	"repro/internal/token"
)

// Options configures lowering.
type Options struct {
	// EmitPredicates lowers ooe must-not-alias predicates to mustnotalias
	// intrinsics (the OOElala configuration). Off = plain Clang-like
	// lowering.
	EmitPredicates bool
	// Sanitize additionally lowers call-free predicates to ubcheck
	// runtime assertions (the UBSan derivation, §4.1).
	Sanitize bool
}

// Generator lowers one translation unit.
type Generator struct {
	opts Options
	mod  *ir.Module
	tu   *ast.TranslationUnit

	// preds maps full-expression root IDs to their predicates (roots
	// without predicates are absent).
	preds map[int][]ooe.Predicate

	fn      *ir.Func
	blk     *ir.Block
	allocas map[*ast.Symbol]*ir.Instr
	// lvPtr records the lowered pointer value for lvalue sub-expressions
	// of the current full expression, keyed by AST expression ID. It is
	// nil (recording off) unless the full expression has predicates.
	lvPtr map[int]ir.Value

	breakTargets    []*ir.Block
	continueTargets []*ir.Block

	// curSpan is the source range of the construct currently being
	// lowered; emit stamps it onto every instruction that does not carry
	// its own span, so the run-leg profiler's line tables cover the whole
	// function body.
	curSpan ir.SrcSpan

	errs []error

	// Stats
	NumIntrinsics int
	NumUBChecks   int
}

// Generate lowers tu. reports is the per-full-expression OOE analysis (may
// be nil when EmitPredicates is false).
func Generate(tu *ast.TranslationUnit, reports []ooe.FullExprReport, opts Options) (*ir.Module, []error) {
	g := &Generator{
		opts:  opts,
		mod:   &ir.Module{Name: tu.File},
		tu:    tu,
		preds: make(map[int][]ooe.Predicate),
	}
	for _, rep := range reports {
		if len(rep.Predicates) > 0 {
			g.preds[rep.Result.Root.ID()] = rep.Predicates
		}
	}
	g.genGlobals()
	for _, f := range tu.Funcs {
		if f.Body == nil {
			continue
		}
		g.genFunc(f)
	}
	return g.mod, g.errs
}

func (g *Generator) errorf(format string, args ...any) {
	if len(g.errs) < 20 {
		g.errs = append(g.errs, fmt.Errorf(format, args...))
	}
}

// classOf maps a C type to an IR value class.
func classOf(t *ctypes.Type) ir.Class {
	if t == nil {
		return ir.I64
	}
	switch t.Kind {
	case ctypes.Void:
		return ir.Void
	case ctypes.Bool, ctypes.Char, ctypes.SChar, ctypes.UChar:
		return ir.I8
	case ctypes.Short, ctypes.UShort:
		return ir.I16
	case ctypes.Int, ctypes.UInt, ctypes.Enum:
		return ir.I32
	case ctypes.Long, ctypes.ULong, ctypes.LongLong, ctypes.ULongLong:
		return ir.I64
	case ctypes.Float:
		return ir.F32
	case ctypes.Double:
		return ir.F64
	case ctypes.Ptr, ctypes.Array, ctypes.Func:
		return ir.Ptr
	}
	return ir.I64
}

func sizeOf(t *ctypes.Type) int {
	s := t.Size()
	if s == 0 {
		s = 8
	}
	return s
}

// ---------- Globals ----------

func (g *Generator) genGlobals() {
	for _, vd := range g.tu.Globals {
		gl := &ir.Global{
			Name:      vd.Name,
			Size:      sizeOf(vd.Type),
			Init:      make(map[int]ir.InitVal),
			ElemClass: scalarClass(vd.Type),
		}
		if vd.Init != nil {
			g.constInit(gl, 0, vd.Type, vd.Init)
		}
		g.mod.Globals = append(g.mod.Globals, gl)
	}
}

// scalarClass finds the dominant scalar class of an aggregate for
// zero-initialization purposes.
func scalarClass(t *ctypes.Type) ir.Class {
	switch t.Kind {
	case ctypes.Array:
		return scalarClass(t.Elem)
	case ctypes.Struct, ctypes.Union:
		if len(t.Fields) > 0 {
			return scalarClass(t.Fields[0].Type)
		}
		return ir.I64
	default:
		return classOf(t)
	}
}

func (g *Generator) constInit(gl *ir.Global, off int, t *ctypes.Type, e ast.Expr) {
	if il, ok := e.(*ast.InitList); ok {
		switch t.Kind {
		case ctypes.Array:
			es := t.Elem.Size()
			for i, el := range il.Elems {
				g.constInit(gl, off+i*es, t.Elem, el)
			}
		case ctypes.Struct:
			for i, el := range il.Elems {
				if i >= len(t.Fields) {
					break
				}
				g.constInit(gl, off+t.Fields[i].Offset, t.Fields[i].Type, el)
			}
		default:
			if len(il.Elems) > 0 {
				g.constInit(gl, off, t, il.Elems[0])
			}
		}
		return
	}
	cls := classOf(t)
	if v, ok := constFold(e); ok {
		if cls.IsFloat() {
			gl.Init[off] = ir.InitVal{Cls: cls, F: v.f}
		} else {
			gl.Init[off] = ir.InitVal{Cls: cls, I: v.i}
		}
		return
	}
	// Non-constant global initializers are not needed by the workloads.
	// Report rather than silently mis-lowering.
	_ = fmt.Sprintf // keep imports settled
}

type cval struct {
	i       int64
	f       float64
	isFloat bool
}

func constFold(e ast.Expr) (cval, bool) {
	switch x := sema.Strip(e).(type) {
	case *ast.IntLit:
		return cval{i: x.Value}, true
	case *ast.CharLit:
		return cval{i: x.Value}, true
	case *ast.FloatLit:
		return cval{f: x.Value, isFloat: true}, true
	case *ast.Unary:
		if v, ok := constFold(x.X); ok {
			switch x.Op {
			case token.Minus:
				if v.isFloat {
					return cval{f: -v.f, isFloat: true}, true
				}
				return cval{i: -v.i}, true
			case token.Tilde:
				return cval{i: ^v.i}, true
			}
		}
	case *ast.Cast:
		if v, ok := constFold(x.X); ok {
			if x.To.IsFloat() && !v.isFloat {
				return cval{f: float64(v.i), isFloat: true}, true
			}
			if !x.To.IsFloat() && v.isFloat {
				return cval{i: int64(v.f)}, true
			}
			return v, true
		}
	case *ast.Binary:
		l, ok1 := constFold(x.L)
		r, ok2 := constFold(x.R)
		if ok1 && ok2 && !l.isFloat && !r.isFloat {
			switch x.Op {
			case token.Plus:
				return cval{i: l.i + r.i}, true
			case token.Minus:
				return cval{i: l.i - r.i}, true
			case token.Star:
				return cval{i: l.i * r.i}, true
			case token.Shl:
				return cval{i: l.i << uint(r.i)}, true
			}
		}
	}
	return cval{}, false
}

// ---------- Functions ----------

func (g *Generator) genFunc(f *ast.FuncDecl) {
	fn := &ir.Func{Name: f.Name, Ret: classOf(f.Type.Ret), ReadNone: f.Pure}
	g.fn = fn
	g.setSpan(f.NamePos, f.NamePos)
	g.allocas = make(map[*ast.Symbol]*ir.Instr)
	g.mod.Funcs = append(g.mod.Funcs, fn)
	entry := fn.NewBlock("entry")
	g.blk = entry

	for i, p := range f.Params {
		pv := &ir.Param{Name: p.Name, Cls: classOf(p.Type), Idx: i,
			Restrict: p.Type != nil && p.Type.Restrict}
		fn.Params = append(fn.Params, pv)
		// Spill params to allocas (mem2reg-less lowering).
		al := g.emit(&ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, Name: p.Name, AllocSz: sizeOf(p.Type)})
		if p.Sym != nil {
			g.allocas[p.Sym] = al
		}
		g.emit(&ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{al, pv}})
	}

	g.genStmt(f.Body)
	// Implicit return.
	if g.blk != nil && g.blk.Terminator() == nil {
		if fn.Ret == ir.Void {
			g.emit(&ir.Instr{Op: ir.OpRet, Cls: ir.Void})
		} else {
			zero := ir.ConstInt(fn.Ret, 0)
			if fn.Ret.IsFloat() {
				zero = ir.ConstFloat(fn.Ret, 0)
			}
			g.emit(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{zero}})
		}
	}
	g.fn = nil
}

func (g *Generator) emit(i *ir.Instr) *ir.Instr {
	if !i.Span.IsValid() {
		i.Span = g.curSpan
	}
	return g.blk.Append(i)
}

// setSpan makes [start, end] the span stamped onto subsequent emits.
func (g *Generator) setSpan(start, end token.Pos) {
	if start.IsValid() {
		g.curSpan = ir.SrcSpan{Start: start, End: end}
	}
}

// ---------- Statements ----------

func (g *Generator) genStmt(s ast.Stmt) {
	if g.blk == nil {
		// Unreachable code after return/break: give it a fresh block so
		// lowering can proceed (it will be removed by simplifycfg).
		g.blk = g.fn.NewBlock("dead")
	}
	g.setSpan(s.Pos(), s.Pos())
	switch x := s.(type) {
	case *ast.Block:
		if x == nil {
			return
		}
		for _, sub := range x.Stmts {
			g.genStmt(sub)
		}
	case *ast.DeclStmt:
		for _, d := range x.Decls {
			al := g.emit(&ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, Name: d.Name, AllocSz: sizeOf(d.Type)})
			if d.Sym != nil {
				g.allocas[d.Sym] = al
			}
			if d.Init != nil {
				g.genLocalInit(al, d.Type, d.Init)
			}
		}
	case *ast.ExprStmt:
		g.genFullExpr(x.X)
	case *ast.If:
		cond := g.genFullExpr(x.Cond)
		thenB := g.fn.NewBlock("if.then")
		elseB := g.fn.NewBlock("if.else")
		doneB := g.fn.NewBlock("if.end")
		g.emit(&ir.Instr{Op: ir.OpCondBr, Cls: ir.Void, Args: []ir.Value{g.truthy(cond, x.Cond.Type())}, Then: thenB, Else: elseB})
		g.blk = thenB
		g.genStmt(x.Then)
		g.branchTo(doneB)
		g.blk = elseB
		if x.Else != nil {
			g.genStmt(x.Else)
		}
		g.branchTo(doneB)
		g.blk = doneB
	case *ast.While:
		condB := g.fn.NewBlock("while.cond")
		bodyB := g.fn.NewBlock("while.body")
		doneB := g.fn.NewBlock("while.end")
		g.branchTo(condB)
		g.blk = condB
		cond := g.genFullExpr(x.Cond)
		g.emit(&ir.Instr{Op: ir.OpCondBr, Cls: ir.Void, Args: []ir.Value{g.truthy(cond, x.Cond.Type())}, Then: bodyB, Else: doneB})
		g.blk = bodyB
		g.pushLoop(doneB, condB)
		g.genStmt(x.Body)
		g.popLoop()
		g.branchTo(condB)
		g.blk = doneB
	case *ast.DoWhile:
		bodyB := g.fn.NewBlock("do.body")
		condB := g.fn.NewBlock("do.cond")
		doneB := g.fn.NewBlock("do.end")
		g.branchTo(bodyB)
		g.blk = bodyB
		g.pushLoop(doneB, condB)
		g.genStmt(x.Body)
		g.popLoop()
		g.branchTo(condB)
		g.blk = condB
		cond := g.genFullExpr(x.Cond)
		g.emit(&ir.Instr{Op: ir.OpCondBr, Cls: ir.Void, Args: []ir.Value{g.truthy(cond, x.Cond.Type())}, Then: bodyB, Else: doneB})
		g.blk = doneB
	case *ast.For:
		if x.Init != nil {
			g.genStmt(x.Init)
		}
		condB := g.fn.NewBlock("for.cond")
		bodyB := g.fn.NewBlock("for.body")
		postB := g.fn.NewBlock("for.post")
		doneB := g.fn.NewBlock("for.end")
		g.branchTo(condB)
		g.blk = condB
		if x.Cond != nil {
			cond := g.genFullExpr(x.Cond)
			g.emit(&ir.Instr{Op: ir.OpCondBr, Cls: ir.Void, Args: []ir.Value{g.truthy(cond, x.Cond.Type())}, Then: bodyB, Else: doneB})
		} else {
			g.branchTo(bodyB)
		}
		g.blk = bodyB
		g.pushLoop(doneB, postB)
		g.genStmt(x.Body)
		g.popLoop()
		g.branchTo(postB)
		g.blk = postB
		if x.Post != nil {
			g.genFullExpr(x.Post)
		}
		g.branchTo(condB)
		g.blk = doneB
	case *ast.Return:
		if x.X != nil {
			v := g.genFullExpr(x.X)
			v = g.convertTo(v, g.fn.Ret)
			g.emit(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{v}})
		} else {
			g.emit(&ir.Instr{Op: ir.OpRet, Cls: ir.Void})
		}
		g.blk = nil
	case *ast.Break:
		if n := len(g.breakTargets); n > 0 {
			g.emit(&ir.Instr{Op: ir.OpBr, Cls: ir.Void, Target: g.breakTargets[n-1]})
		}
		g.blk = nil
	case *ast.Continue:
		if n := len(g.continueTargets); n > 0 {
			g.emit(&ir.Instr{Op: ir.OpBr, Cls: ir.Void, Target: g.continueTargets[n-1]})
		}
		g.blk = nil
	case *ast.Switch:
		g.genSwitch(x)
	case *ast.Case:
		// Handled inside genSwitch; stray labels are no-ops.
	}
}

func (g *Generator) genLocalInit(al *ir.Instr, t *ctypes.Type, init ast.Expr) {
	if il, ok := init.(*ast.InitList); ok {
		switch t.Kind {
		case ctypes.Array:
			es := t.Elem.Size()
			for i, el := range il.Elems {
				ptr := g.emit(&ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr,
					Args: []ir.Value{al, ir.ConstInt(ir.I64, 0)}, Scale: 1, Off: i * es})
				g.genLocalInit(ptr, t.Elem, el)
			}
		case ctypes.Struct:
			for i, el := range il.Elems {
				if i >= len(t.Fields) {
					break
				}
				f := t.Fields[i]
				ptr := g.emit(&ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr,
					Args: []ir.Value{al, ir.ConstInt(ir.I64, 0)}, Scale: 1, Off: f.Offset})
				g.genLocalInit(ptr, f.Type, el)
			}
		default:
			if len(il.Elems) > 0 {
				g.genLocalInit(al, t, il.Elems[0])
			}
		}
		return
	}
	v := g.genFullExpr(init)
	v = g.convertTo(v, classOf(t))
	g.emit(&ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{al, v}})
}

func (g *Generator) genSwitch(x *ast.Switch) {
	tag := g.genFullExpr(x.Tag)
	body, ok := x.Body.(*ast.Block)
	if !ok {
		return
	}
	doneB := g.fn.NewBlock("switch.end")
	// One block per case region.
	type region struct {
		val   ast.Expr // nil for default
		block *ir.Block
		stmts []ast.Stmt
	}
	var regions []*region
	var cur *region
	for _, sub := range body.Stmts {
		if cs, isCase := sub.(*ast.Case); isCase {
			cur = &region{val: cs.Value, block: g.fn.NewBlock("case")}
			regions = append(regions, cur)
			continue
		}
		if cur != nil {
			cur.stmts = append(cur.stmts, sub)
		}
	}
	// Dispatch chain.
	var deflt *ir.Block = doneB
	for _, rg := range regions {
		if rg.val == nil {
			deflt = rg.block
		}
	}
	for _, rg := range regions {
		if rg.val == nil {
			continue
		}
		v := g.genExpr(rg.val)
		cmp := g.emit(&ir.Instr{Op: ir.OpCmp, Cls: ir.I32, Pred: ir.Eq,
			Args: []ir.Value{tag, g.convertTo(v, valClass(tag))}})
		next := g.fn.NewBlock("switch.next")
		g.emit(&ir.Instr{Op: ir.OpCondBr, Cls: ir.Void, Args: []ir.Value{cmp}, Then: rg.block, Else: next})
		g.blk = next
	}
	g.branchTo(deflt)
	// Case bodies with fallthrough.
	g.pushLoop(doneB, doneB)
	for i, rg := range regions {
		g.blk = rg.block
		for _, st := range rg.stmts {
			g.genStmt(st)
		}
		if i+1 < len(regions) {
			g.branchTo(regions[i+1].block)
		} else {
			g.branchTo(doneB)
		}
	}
	g.popLoop()
	g.blk = doneB
}

func (g *Generator) pushLoop(brk, cont *ir.Block) {
	g.breakTargets = append(g.breakTargets, brk)
	g.continueTargets = append(g.continueTargets, cont)
}

func (g *Generator) popLoop() {
	g.breakTargets = g.breakTargets[:len(g.breakTargets)-1]
	g.continueTargets = g.continueTargets[:len(g.continueTargets)-1]
}

// branchTo terminates the current block with a branch if it is open.
func (g *Generator) branchTo(b *ir.Block) {
	if g.blk != nil && g.blk.Terminator() == nil {
		g.emit(&ir.Instr{Op: ir.OpBr, Cls: ir.Void, Target: b})
	}
}

func valClass(v ir.Value) ir.Class { return v.Class() }

// ---------- Full expressions and predicates ----------

// genFullExpr lowers a full expression and then emits the must-not-alias
// intrinsics (and sanitizer checks) for its predicates.
func (g *Generator) genFullExpr(e ast.Expr) ir.Value {
	start, end := ast.Span(e)
	g.setSpan(start, end)
	preds := g.preds[e.ID()]
	if len(preds) > 0 {
		g.lvPtr = make(map[int]ir.Value)
	}
	v := g.genExpr(e)
	if g.blk != nil {
		for _, p := range preds {
			if p.BothBitfields {
				continue // §4.2.3: unsound under bitfield widening
			}
			p1 := g.lvPtr[sema.Strip(p.E1).ID()]
			p2 := g.lvPtr[sema.Strip(p.E2).ID()]
			if p1 == nil || p2 == nil {
				continue // sub-expression on a never-lowered path (?:, &&)
			}
			emitPred := g.opts.EmitPredicates && !p.ImpureCall
			emitCheck := g.opts.Sanitize && len(p.Calls) == 0
			meta := 0
			if emitPred || emitCheck {
				meta = g.recordProvenance(e, p)
			}
			if emitPred {
				// Invariant: with EmitPredicates on, every provenance entry
				// pairs with exactly one intrinsic, so meta == NumIntrinsics
				// (the historical 1-based "pred #" numbering).
				g.NumIntrinsics++
				g.emit(&ir.Instr{Op: ir.OpMustNotAlias, Cls: ir.Void,
					Args: []ir.Value{p1, p2}, Meta: meta})
			}
			if emitCheck {
				g.emit(&ir.Instr{Op: ir.OpUBCheck, Cls: ir.Void, Args: []ir.Value{p1, p2}, Meta: meta})
				g.NumUBChecks++
			}
		}
	}
	g.lvPtr = nil
	return v
}

// recordProvenance appends the source-level description of predicate p
// to the module provenance table and returns its 1-based Meta id.
func (g *Generator) recordProvenance(root ast.Expr, p ooe.Predicate) int {
	meta := len(g.mod.Provenance) + 1
	s1a, s1b := ast.Span(p.E1)
	s2a, s2b := ast.Span(p.E2)
	g.mod.Provenance = append(g.mod.Provenance, ir.PredProvenance{
		Meta:  meta,
		Fn:    g.fn.Name,
		Root:  root.ID(),
		E1:    ast.ExprString(p.E1),
		E2:    ast.ExprString(p.E2),
		Span1: ir.SrcSpan{Start: s1a, End: s1b},
		Span2: ir.SrcSpan{Start: s2a, End: s2b},
		Pos:   p.Pos,
	})
	return meta
}

// recordLV associates the AST lvalue expression with its lowered pointer.
func (g *Generator) recordLV(e ast.Expr, ptr ir.Value) {
	if g.lvPtr != nil {
		g.lvPtr[e.ID()] = ptr
	}
}
