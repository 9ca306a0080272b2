// Package annotate implements the algorithmic CANT_ALIAS annotation the
// paper's §5 suggests as an extension ("It is likely possible to obtain
// better speedups by adding CANT_ALIAS annotations to the SPEC source,
// either manually or algorithmically"). Mock's study found that
// programmer-specified aliasing is error-prone; the paper's answer is the
// UBSan derivation, so this annotator pairs the two: a heuristic inserts
// candidate annotations, and the sanitizer validates them on a concrete
// run before they are trusted for optimization.
//
// The heuristic: inside each loop body, collect distinct pointer-derived
// lvalues (p[i], s->field, *p with p a pointer parameter or
// pointer-typed local) that contain no calls, and insert a no-op
// unsequenced expression-statement asserting their pairwise
// disjointness — exactly what the paper's macro expands to.
package annotate

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/ctypes"
	"repro/internal/sanitizer"
	"repro/internal/sema"
	"repro/internal/token"
)

// MaxPerLoop bounds the lvalues annotated per loop (pairs grow
// quadratically).
const MaxPerLoop = 5

// Unit inserts annotations into every function of tu and returns the
// number of annotation statements added. sema must have run on tu; the
// caller must re-run sema afterwards (driver.Config.Transform does).
func Unit(tu *ast.TranslationUnit) int {
	added := 0
	for _, f := range tu.Funcs {
		if f.Body == nil {
			continue
		}
		added += annotateStmt(tu, f.Body)
	}
	return added
}

func annotateStmt(tu *ast.TranslationUnit, s ast.Stmt) int {
	added := 0
	switch x := s.(type) {
	case *ast.Block:
		if x == nil {
			return 0
		}
		for _, sub := range x.Stmts {
			added += annotateStmt(tu, sub)
		}
	case *ast.If:
		added += annotateStmt(tu, x.Then)
		if x.Else != nil {
			added += annotateStmt(tu, x.Else)
		}
	case *ast.For:
		x.Body = blockify(x.Body)
		added += annotateLoopBody(tu, x.Body)
		added += annotateStmt(tu, x.Body)
	case *ast.While:
		x.Body = blockify(x.Body)
		added += annotateLoopBody(tu, x.Body)
		added += annotateStmt(tu, x.Body)
	case *ast.DoWhile:
		x.Body = blockify(x.Body)
		added += annotateLoopBody(tu, x.Body)
		added += annotateStmt(tu, x.Body)
	case *ast.Switch:
		added += annotateStmt(tu, x.Body)
	}
	return added
}

// blockify wraps a single-statement loop body in a block so annotations
// have somewhere to go.
func blockify(s ast.Stmt) ast.Stmt {
	if _, ok := s.(*ast.Block); ok || s == nil {
		return s
	}
	return ast.NewBlock(s.Pos(), []ast.Stmt{s})
}

// annotateLoopBody prepends one annotation statement to the loop body if
// it references at least two distinct candidate lvalues.
func annotateLoopBody(tu *ast.TranslationUnit, body ast.Stmt) int {
	blk, ok := body.(*ast.Block)
	if !ok {
		return 0
	}
	cands := collectCandidates(blk)
	if len(cands) < 2 {
		return 0
	}
	if len(cands) > MaxPerLoop {
		cands = cands[:MaxPerLoop]
	}
	next := tu.NumExprs
	annot := buildAnnotation(cands, &next)
	tu.NumExprs = next
	stmts := make([]ast.Stmt, 0, len(blk.Stmts)+1)
	stmts = append(stmts, ast.NewExprStmt(annot.Pos(), annot))
	stmts = append(stmts, blk.Stmts...)
	blk.Stmts = stmts
	return 1
}

// collectCandidates finds distinct pointer-derived scalar lvalues in the
// statements of blk (not descending into nested loops, which get their
// own annotations).
func collectCandidates(blk *ast.Block) []ast.Expr {
	var out []ast.Expr
	seen := map[string]bool{}
	consider := func(e ast.Expr) {
		if !isCandidate(e) {
			return
		}
		key := ast.ExprString(e)
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, e)
	}
	for _, s := range blk.Stmts {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			continue
		}
		ast.Walk(es.X, func(e ast.Expr) { consider(e) })
	}
	return out
}

// isCandidate accepts scalar, call-free lvalues rooted at a pointer:
// p[i], s->fld, *p.
func isCandidate(e ast.Expr) bool {
	e = sema.Strip(e)
	t := e.Type()
	if t == nil || !t.IsScalar() {
		return false
	}
	hasCall := false
	ast.Walk(e, func(x ast.Expr) {
		if _, ok := x.(*ast.Call); ok {
			hasCall = true
		}
	})
	if hasCall {
		return false
	}
	switch x := e.(type) {
	case *ast.Index:
		base := sema.Strip(x.X)
		bt := base.Type()
		return bt != nil && bt.Decay().Kind == ctypes.Ptr
	case *ast.Member:
		return x.Arrow && !x.Field.BitField
	case *ast.Unary:
		if x.Op != token.Star {
			return false
		}
		if id, ok := sema.Strip(x.X).(*ast.Ident); ok {
			return id.Sym == nil || id.Sym.Func == nil
		}
	}
	return false
}

// buildAnnotation constructs ((a = a) + (b = b) + ...) over clones of the
// candidate lvalues.
func buildAnnotation(cands []ast.Expr, nextID *int) ast.Expr {
	selfAssign := func(e ast.Expr) ast.Expr {
		l := ast.CloneExpr(e, nextID)
		r := ast.CloneExpr(e, nextID)
		a := &ast.Assign{ExprBase: ast.NewExprBase(*nextID, e.Pos()), Op: token.Assign, L: l, R: r}
		*nextID++
		p := &ast.Paren{ExprBase: ast.NewExprBase(*nextID, e.Pos()), X: a}
		*nextID++
		return p
	}
	expr := selfAssign(cands[0])
	for _, c := range cands[1:] {
		rhs := selfAssign(c)
		b := &ast.Binary{ExprBase: ast.NewExprBase(*nextID, c.Pos()), Op: token.Plus, L: expr, R: rhs}
		*nextID++
		expr = b
	}
	return expr
}

// Report summarizes a validated annotation run.
type Report struct {
	// Inserted is the number of annotation statements added.
	Inserted int
	// Validated is true when the sanitizer observed no violation of the
	// inserted annotations on the program's own main().
	Validated bool
	// Violations from the validation run (non-empty means the heuristic
	// guessed wrong for this program and the annotations must not be
	// used).
	Violations []sanitizer.Failure
}

// Validate inserts annotations and runs the sanitizer over the annotated
// program (the Mock-hazard check): only a clean run licenses using the
// annotations for optimization.
func Validate(name, src string, files map[string]string) (*Report, error) {
	rep := &Report{}
	transform := func(tu *ast.TranslationUnit) {
		rep.Inserted = Unit(tu)
	}
	sanRep, err := sanitizer.Check(name, src, files, "", transform, nil)
	if err != nil {
		return nil, fmt.Errorf("annotate validate: %w", err)
	}
	rep.Violations = sanRep.Failures
	rep.Validated = len(sanRep.Failures) == 0
	return rep, nil
}
