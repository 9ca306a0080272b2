// Package parser implements a recursive-descent parser for the C subset
// accepted by the OOElala frontend. It consumes preprocessed tokens and
// produces an ast.TranslationUnit with unique expression IDs (used as the
// keys of the ω/θ/γ/π analysis).
package parser

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/cpp"
	"repro/internal/ctypes"
	"repro/internal/telemetry"
	"repro/internal/token"
)

// Error is a parse error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Parser parses one translation unit.
type Parser struct {
	toks   []token.Token
	i      int
	file   string
	errs   []*Error
	nextID int

	// typedefs maps typedef names to their types; seeded with the common
	// <stdint.h>/<stddef.h> names so workloads can use them freely.
	typedefs map[string]*ctypes.Type
	// tags maps struct/union/enum tags to types.
	tags map[string]*ctypes.Type
	// enums maps enumerator names to constant values.
	enums map[string]int64
}

// New creates a parser over preprocessed tokens.
func New(file string, toks []token.Token) *Parser {
	p := &Parser{
		toks:     toks,
		file:     file,
		typedefs: builtinTypedefs(),
		tags:     make(map[string]*ctypes.Type),
		enums:    make(map[string]int64),
	}
	return p
}

func builtinTypedefs() map[string]*ctypes.Type {
	return map[string]*ctypes.Type{
		"size_t":    ctypes.ULongType,
		"ssize_t":   ctypes.LongType,
		"ptrdiff_t": ctypes.LongType,
		"int8_t":    ctypes.SCharType,
		"uint8_t":   ctypes.UCharType,
		"int16_t":   ctypes.ShortType,
		"uint16_t":  ctypes.UShortType,
		"int32_t":   ctypes.IntType,
		"uint32_t":  ctypes.UIntType,
		"int64_t":   ctypes.LongType,
		"uint64_t":  ctypes.ULongType,
		"uint32":    ctypes.UIntType,
		"uint8":     ctypes.UCharType,
		"intptr_t":  ctypes.LongType,
		"uintptr_t": ctypes.ULongType,
		"U32":       ctypes.UIntType,
		"IV":        ctypes.LongType,
		"I32":       ctypes.IntType,
	}
}

// ParseFile preprocesses src (with extraFiles available to #include) and
// parses it.
func ParseFile(file, src string, extraFiles map[string]string) (*ast.TranslationUnit, []*Error) {
	return ParseFileTimed(file, src, extraFiles, nil, nil)
}

// ParseFileTimed is ParseFile with predefined macros (-D name=body) and
// sub-phase telemetry: preprocessing and syntax analysis record
// separate spans (phase/parse/cpp and phase/parse/syntax) nested under
// the driver's phase/parse, plus the preprocessor's expansion counters.
// tel may be nil.
func ParseFileTimed(file, src string, extraFiles, defines map[string]string, tel *telemetry.Session) (*ast.TranslationUnit, []*Error) {
	pp := cpp.New(extraFiles)
	pp.SetTelemetry(tel)
	names := make([]string, 0, len(defines))
	for name := range defines {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var e *cpp.Error
		if err := pp.Define(name, defines[name]); errors.As(err, &e) {
			return nil, []*Error{{Pos: e.Pos, Msg: e.Msg}}
		}
	}
	toks := pp.Process(file, src)
	stop := tel.Span("phase/parse/syntax")
	p := New(file, toks)
	tu := p.ParseTranslationUnit()
	stop()
	for _, e := range pp.Errors() {
		p.errs = append(p.errs, &Error{Pos: e.Pos, Msg: e.Msg})
	}
	return tu, p.errs
}

// Errors returns the parse errors.
func (p *Parser) Errors() []*Error { return p.errs }

func (p *Parser) errorf(pos token.Pos, format string, args ...any) {
	if len(p.errs) < 50 {
		p.errs = append(p.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

func (p *Parser) peek() token.Token {
	if p.i < len(p.toks) {
		return p.toks[p.i]
	}
	return token.Token{Kind: token.EOF}
}

func (p *Parser) peekAt(n int) token.Token {
	if p.i+n < len(p.toks) {
		return p.toks[p.i+n]
	}
	return token.Token{Kind: token.EOF}
}

func (p *Parser) next() token.Token {
	t := p.peek()
	if p.i < len(p.toks) {
		p.i++
	}
	return t
}

func (p *Parser) accept(k token.Kind) bool {
	if p.peek().Kind == k {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) token.Token {
	t := p.peek()
	if t.Kind != k {
		p.errorf(t.Pos, "expected %s, got %s", k, t)
		// Error recovery: don't consume; caller decides.
		return token.Token{Kind: k, Pos: t.Pos}
	}
	return p.next()
}

func (p *Parser) newID() int {
	id := p.nextID
	p.nextID++
	return id
}

func (p *Parser) base(pos token.Pos) ast.ExprBase { return ast.NewExprBase(p.newID(), pos) }

// ---------- Types ----------

// isTypeStart reports whether the current token begins a type name.
func (p *Parser) isTypeStart() bool {
	t := p.peek()
	switch t.Kind {
	case token.KwInt, token.KwLong, token.KwShort, token.KwChar, token.KwFloat,
		token.KwDouble, token.KwVoid, token.KwUnsigned, token.KwSigned,
		token.KwStruct, token.KwUnion, token.KwEnum, token.KwConst,
		token.KwVolatile, token.KwStatic, token.KwExtern, token.KwTypedef,
		token.KwRestrict, token.KwInline:
		return true
	case token.Ident:
		_, ok := p.typedefs[t.Text]
		return ok
	}
	return false
}

// parseDeclSpecs parses storage class + type specifiers (the part before
// declarators).
func (p *Parser) parseDeclSpecs() (*ctypes.Type, ast.StorageClass) {
	sc := ast.SCNone
	var base *ctypes.Type
	seenUnsigned, seenSigned := false, false
	longCount, seenInt, seenChar, seenShort := 0, false, false, false
	seenOther := false

	for {
		t := p.peek()
		switch t.Kind {
		case token.KwConst, token.KwVolatile, token.KwRestrict, token.KwInline:
			p.next()
		case token.KwStatic:
			p.next()
			sc = ast.SCStatic
		case token.KwExtern:
			p.next()
			sc = ast.SCExtern
		case token.KwTypedef:
			p.next()
			sc = ast.SCTypedef
		case token.KwUnsigned:
			p.next()
			seenUnsigned = true
		case token.KwSigned:
			p.next()
			seenSigned = true
		case token.KwInt:
			p.next()
			seenInt = true
		case token.KwChar:
			p.next()
			seenChar = true
		case token.KwShort:
			p.next()
			seenShort = true
		case token.KwLong:
			p.next()
			longCount++
		case token.KwFloat:
			p.next()
			base = ctypes.FloatType
			seenOther = true
		case token.KwDouble:
			p.next()
			base = ctypes.DoubleType
			seenOther = true
		case token.KwVoid:
			p.next()
			base = ctypes.VoidType
			seenOther = true
		case token.KwStruct, token.KwUnion:
			base = p.parseStructOrUnion()
			seenOther = true
		case token.KwEnum:
			base = p.parseEnum()
			seenOther = true
		case token.Ident:
			if td, ok := p.typedefs[t.Text]; ok && base == nil && !seenInt && !seenChar &&
				!seenShort && longCount == 0 && !seenUnsigned && !seenSigned && !seenOther {
				p.next()
				base = td
				seenOther = true
				continue
			}
			goto done
		default:
			goto done
		}
	}
done:
	if base == nil || (!seenOther && (seenInt || seenChar || seenShort || longCount > 0 || seenUnsigned || seenSigned)) {
		switch {
		case seenChar && seenUnsigned:
			base = ctypes.UCharType
		case seenChar && seenSigned:
			base = ctypes.SCharType
		case seenChar:
			base = ctypes.CharType
		case seenShort && seenUnsigned:
			base = ctypes.UShortType
		case seenShort:
			base = ctypes.ShortType
		case longCount >= 2 && seenUnsigned:
			base = ctypes.ULongLongType
		case longCount >= 2:
			base = ctypes.LongLongType
		case longCount == 1 && seenUnsigned:
			base = ctypes.ULongType
		case longCount == 1:
			base = ctypes.LongType
		case seenUnsigned:
			base = ctypes.UIntType
		default:
			base = ctypes.IntType
		}
	}
	return base, sc
}

func (p *Parser) parseStructOrUnion() *ctypes.Type {
	kw := p.next() // struct or union
	kind := ctypes.Struct
	if kw.Kind == token.KwUnion {
		kind = ctypes.Union
	}
	tag := ""
	if p.peek().Kind == token.Ident {
		tag = p.next().Text
	}
	if p.peek().Kind != token.LBrace {
		// Reference to a (possibly forward-declared) tag.
		if t, ok := p.tags[tag]; ok {
			return t
		}
		t := &ctypes.Type{Kind: kind, Tag: tag}
		if tag != "" {
			p.tags[tag] = t
		}
		return t
	}
	p.next() // {
	var t *ctypes.Type
	if tag != "" {
		if existing, ok := p.tags[tag]; ok && existing.Kind == kind {
			t = existing // complete a forward declaration in place
		}
	}
	if t == nil {
		t = &ctypes.Type{Kind: kind, Tag: tag}
		if tag != "" {
			p.tags[tag] = t
		}
	}
	t.Fields = nil
	for p.peek().Kind != token.RBrace && p.peek().Kind != token.EOF {
		base, _ := p.parseDeclSpecs()
		for {
			ft, name := p.parseDeclarator(base)
			f := ctypes.Field{Name: name, Type: ft}
			if p.accept(token.Colon) {
				w := p.expect(token.IntLit)
				width, _ := strconv.ParseInt(trimSuffix(w.Text), 0, 32)
				f.BitField = true
				f.BitWidth = int(width)
			}
			t.Fields = append(t.Fields, f)
			if !p.accept(token.Comma) {
				break
			}
		}
		p.expect(token.Semi)
	}
	p.expect(token.RBrace)
	t.LayoutFields()
	return t
}

func (p *Parser) parseEnum() *ctypes.Type {
	p.next() // enum
	tag := ""
	if p.peek().Kind == token.Ident {
		tag = p.next().Text
	}
	t := &ctypes.Type{Kind: ctypes.Enum, Tag: tag}
	if tag != "" {
		p.tags[tag] = t
	}
	if p.accept(token.LBrace) {
		val := int64(0)
		for p.peek().Kind != token.RBrace && p.peek().Kind != token.EOF {
			name := p.expect(token.Ident).Text
			if p.accept(token.Assign) {
				e := p.parseConditional()
				if v, ok := p.constInt(e); ok {
					val = v
				}
			}
			p.enums[name] = val
			val++
			if !p.accept(token.Comma) {
				break
			}
		}
		p.expect(token.RBrace)
	}
	return t
}

// constInt evaluates a small constant expression (integer literals,
// unary minus, binary + - * / << >> | &).
func (p *Parser) constInt(e ast.Expr) (int64, bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		return x.Value, true
	case *ast.CharLit:
		return x.Value, true
	case *ast.Paren:
		return p.constInt(x.X)
	case *ast.Ident:
		if v, ok := p.enums[x.Name]; ok {
			return v, true
		}
	case *ast.Unary:
		if v, ok := p.constInt(x.X); ok {
			switch x.Op {
			case token.Minus:
				return -v, true
			case token.Tilde:
				return ^v, true
			case token.Not:
				if v == 0 {
					return 1, true
				}
				return 0, true
			}
		}
	case *ast.Binary:
		l, ok1 := p.constInt(x.L)
		r, ok2 := p.constInt(x.R)
		if ok1 && ok2 {
			switch x.Op {
			case token.Plus:
				return l + r, true
			case token.Minus:
				return l - r, true
			case token.Star:
				return l * r, true
			case token.Slash:
				if r != 0 {
					return l / r, true
				}
			case token.Percent:
				if r != 0 {
					return l % r, true
				}
			case token.Shl:
				return l << uint(r), true
			case token.Shr:
				return l >> uint(r), true
			case token.Pipe:
				return l | r, true
			case token.Amp:
				return l & r, true
			case token.Caret:
				return l ^ r, true
			}
		}
	case *ast.SizeofExpr:
		if x.Of != nil {
			return int64(x.Of.Size()), true
		}
		if x.X != nil && x.X.Type() != nil {
			return int64(x.X.Type().Size()), true
		}
	}
	return 0, false
}

// parseDeclarator parses pointer stars, a name, and array/function
// suffixes, returning the full type and the declared name. An abstract
// declarator (no name) returns "".
func (p *Parser) parseDeclarator(base *ctypes.Type) (*ctypes.Type, string) {
	for p.accept(token.Star) {
		base = ctypes.PointerTo(base)
		for p.peek().Kind == token.KwConst || p.peek().Kind == token.KwRestrict ||
			p.peek().Kind == token.KwVolatile {
			if p.peek().Kind == token.KwRestrict {
				base = &ctypes.Type{Kind: base.Kind, Elem: base.Elem, Restrict: true}
			}
			p.next()
		}
	}
	name := ""
	var inner *ctypes.Type // for (*name)(...) function-pointer declarators

	if p.peek().Kind == token.Ident {
		name = p.next().Text
	} else if p.peek().Kind == token.LParen && (p.peekAt(1).Kind == token.Star || p.peekAt(1).Kind == token.Ident) {
		// Parenthesized declarator, e.g. int (*fp)(int).
		p.next() // (
		stars := 0
		for p.accept(token.Star) {
			stars++
		}
		if p.peek().Kind == token.Ident {
			name = p.next().Text
		}
		p.expect(token.RParen)
		if p.peek().Kind == token.LParen {
			// Function pointer: parse parameter list.
			params, variadic := p.parseParamTypes()
			ft := ctypes.FuncType(base, params, variadic)
			inner = ft
			for i := 0; i < stars; i++ {
				inner = ctypes.PointerTo(inner)
			}
			return inner, name
		}
		for i := 0; i < stars; i++ {
			base = ctypes.PointerTo(base)
		}
	}

	// Array and function suffixes.
	base = p.parseDeclSuffix(base)
	return base, name
}

func (p *Parser) parseDeclSuffix(base *ctypes.Type) *ctypes.Type {
	if p.peek().Kind == token.LBracket {
		p.next()
		n := -1
		if p.peek().Kind != token.RBracket {
			e := p.parseConditional()
			if v, ok := p.constInt(e); ok {
				n = int(v)
			} else {
				p.errorf(e.Pos(), "array length must be a constant expression")
			}
		}
		p.expect(token.RBracket)
		elem := p.parseDeclSuffix(base) // handle multi-dimensional arrays
		return ctypes.ArrayOf(elem, n)
	}
	return base
}

func (p *Parser) parseParamTypes() ([]*ctypes.Type, bool) {
	p.expect(token.LParen)
	var params []*ctypes.Type
	variadic := false
	if p.peek().Kind == token.RParen {
		p.next()
		return params, false
	}
	if p.peek().Kind == token.KwVoid && p.peekAt(1).Kind == token.RParen {
		p.next()
		p.next()
		return params, false
	}
	for {
		if p.accept(token.Ellipsis) {
			variadic = true
			break
		}
		base, _ := p.parseDeclSpecs()
		t, _ := p.parseDeclarator(base)
		params = append(params, t.Decay())
		if !p.accept(token.Comma) {
			break
		}
	}
	p.expect(token.RParen)
	return params, variadic
}

// ---------- Translation unit ----------

// ParseTranslationUnit parses the whole token stream.
func (p *Parser) ParseTranslationUnit() *ast.TranslationUnit {
	tu := &ast.TranslationUnit{File: p.file, Types: p.tags}
	for p.peek().Kind != token.EOF {
		start := p.i
		p.parseExternalDecl(tu)
		if p.i == start {
			p.errorf(p.peek().Pos, "cannot parse declaration at %s", p.peek())
			p.next() // ensure progress
		}
	}
	tu.NumExprs = p.nextID
	return tu
}

func (p *Parser) parseExternalDecl(tu *ast.TranslationUnit) {
	if p.accept(token.Semi) {
		return
	}
	base, sc := p.parseDeclSpecs()
	if p.peek().Kind == token.Semi {
		p.next() // bare struct/union/enum declaration
		return
	}
	for {
		t, name := p.parseDeclarator(base)
		if name == "" {
			p.errorf(p.peek().Pos, "expected declarator name")
			p.skipToSemi()
			return
		}
		if sc == ast.SCTypedef {
			p.typedefs[name] = t
			if !p.accept(token.Comma) {
				break
			}
			continue
		}
		// Function definition or prototype?
		if p.peek().Kind == token.LParen {
			fd := p.parseFuncTail(name, t, sc)
			if fd != nil {
				tu.Funcs = append(tu.Funcs, fd)
			}
			if fd != nil && fd.Body != nil {
				return // definitions don't share a declarator list
			}
			if !p.accept(token.Comma) {
				p.accept(token.Semi)
				return
			}
			continue
		}
		vd := &ast.VarDecl{NamePos: p.peek().Pos, Name: name, Type: t, Storage: sc}
		if p.accept(token.Assign) {
			vd.Init = p.parseInitializer()
		}
		tu.Globals = append(tu.Globals, vd)
		if !p.accept(token.Comma) {
			break
		}
	}
	p.expect(token.Semi)
}

func (p *Parser) parseFuncTail(name string, ret *ctypes.Type, sc ast.StorageClass) *ast.FuncDecl {
	pos := p.peek().Pos
	p.expect(token.LParen)
	var params []*ast.VarDecl
	var ptypes []*ctypes.Type
	variadic := false
	if p.peek().Kind == token.RParen {
		p.next()
	} else if p.peek().Kind == token.KwVoid && p.peekAt(1).Kind == token.RParen {
		p.next()
		p.next()
	} else {
		for {
			if p.accept(token.Ellipsis) {
				variadic = true
				break
			}
			pbase, _ := p.parseDeclSpecs()
			pt, pname := p.parseDeclarator(pbase)
			pt = pt.Decay()
			params = append(params, &ast.VarDecl{NamePos: pos, Name: pname, Type: pt})
			ptypes = append(ptypes, pt)
			if !p.accept(token.Comma) {
				break
			}
		}
		p.expect(token.RParen)
	}
	ft := ctypes.FuncType(ret, ptypes, variadic)
	fd := &ast.FuncDecl{NamePos: pos, Name: name, Type: ft, Params: params, Storage: sc}
	if p.peek().Kind == token.LBrace {
		fd.Body = p.parseBlock()
	}
	return fd
}

func (p *Parser) skipToSemi() {
	depth := 0
	for p.peek().Kind != token.EOF {
		switch p.peek().Kind {
		case token.LBrace:
			depth++
		case token.RBrace:
			if depth == 0 {
				return
			}
			depth--
		case token.Semi:
			if depth == 0 {
				p.next()
				return
			}
		}
		p.next()
	}
}

// ---------- Statements ----------

func (p *Parser) parseBlock() *ast.Block {
	pos := p.expect(token.LBrace).Pos
	var stmts []ast.Stmt
	for p.peek().Kind != token.RBrace && p.peek().Kind != token.EOF {
		start := p.i
		stmts = append(stmts, p.parseStmt())
		if p.i == start {
			p.next() // ensure progress on errors
		}
	}
	p.expect(token.RBrace)
	return ast.NewBlock(pos, stmts)
}

func (p *Parser) parseStmt() ast.Stmt {
	t := p.peek()
	switch t.Kind {
	case token.LBrace:
		return p.parseBlock()
	case token.KwIf:
		p.next()
		p.expect(token.LParen)
		cond := p.parseExpr()
		p.expect(token.RParen)
		then := p.parseStmt()
		var els ast.Stmt
		if p.accept(token.KwElse) {
			els = p.parseStmt()
		}
		return ast.NewIf(t.Pos, cond, then, els)
	case token.KwWhile:
		p.next()
		p.expect(token.LParen)
		cond := p.parseExpr()
		p.expect(token.RParen)
		body := p.parseStmt()
		return ast.NewWhile(t.Pos, cond, body)
	case token.KwDo:
		p.next()
		body := p.parseStmt()
		p.expect(token.KwWhile)
		p.expect(token.LParen)
		cond := p.parseExpr()
		p.expect(token.RParen)
		p.expect(token.Semi)
		return ast.NewDoWhile(t.Pos, body, cond)
	case token.KwFor:
		p.next()
		p.expect(token.LParen)
		var init ast.Stmt
		if p.peek().Kind != token.Semi {
			if p.isTypeStart() {
				init = p.parseDeclStmt()
			} else {
				e := p.parseExpr()
				p.expect(token.Semi)
				init = ast.NewExprStmt(e.Pos(), e)
			}
		} else {
			p.next()
		}
		var cond ast.Expr
		if p.peek().Kind != token.Semi {
			cond = p.parseExpr()
		}
		p.expect(token.Semi)
		var post ast.Expr
		if p.peek().Kind != token.RParen {
			post = p.parseExpr()
		}
		p.expect(token.RParen)
		body := p.parseStmt()
		return ast.NewFor(t.Pos, init, cond, post, body)
	case token.KwReturn:
		p.next()
		var x ast.Expr
		if p.peek().Kind != token.Semi {
			x = p.parseExpr()
		}
		p.expect(token.Semi)
		return ast.NewReturn(t.Pos, x)
	case token.KwBreak:
		p.next()
		p.expect(token.Semi)
		return ast.NewBreak(t.Pos)
	case token.KwContinue:
		p.next()
		p.expect(token.Semi)
		return ast.NewContinue(t.Pos)
	case token.KwSwitch:
		p.next()
		p.expect(token.LParen)
		tag := p.parseExpr()
		p.expect(token.RParen)
		body := p.parseStmt()
		return ast.NewSwitch(t.Pos, tag, body)
	case token.KwCase:
		p.next()
		v := p.parseConditional()
		p.expect(token.Colon)
		return ast.NewCase(t.Pos, v)
	case token.KwDefault:
		p.next()
		p.expect(token.Colon)
		return ast.NewCase(t.Pos, nil)
	case token.Semi:
		p.next()
		return ast.NewBlock(t.Pos, nil)
	}
	if p.isTypeStart() {
		return p.parseDeclStmt()
	}
	e := p.parseExpr()
	p.expect(token.Semi)
	return ast.NewExprStmt(e.Pos(), e)
}

func (p *Parser) parseDeclStmt() ast.Stmt {
	pos := p.peek().Pos
	base, sc := p.parseDeclSpecs()
	if sc == ast.SCTypedef {
		t, name := p.parseDeclarator(base)
		p.typedefs[name] = t
		p.expect(token.Semi)
		return ast.NewBlock(pos, nil)
	}
	var decls []*ast.VarDecl
	for {
		t, name := p.parseDeclarator(base)
		vd := &ast.VarDecl{NamePos: pos, Name: name, Type: t, Storage: sc}
		if p.accept(token.Assign) {
			vd.Init = p.parseInitializer()
		}
		decls = append(decls, vd)
		if !p.accept(token.Comma) {
			break
		}
	}
	p.expect(token.Semi)
	return ast.NewDeclStmt(pos, decls)
}

func (p *Parser) parseInitializer() ast.Expr {
	if p.peek().Kind == token.LBrace {
		pos := p.next().Pos
		il := &ast.InitList{ExprBase: p.base(pos)}
		for p.peek().Kind != token.RBrace && p.peek().Kind != token.EOF {
			il.Elems = append(il.Elems, p.parseInitializer())
			if !p.accept(token.Comma) {
				break
			}
		}
		p.expect(token.RBrace)
		return il
	}
	return p.parseAssignExpr()
}

// ---------- Expressions ----------

// parseExpr parses a full expression (including the comma operator).
func (p *Parser) parseExpr() ast.Expr {
	e := p.parseAssignExpr()
	for p.peek().Kind == token.Comma {
		pos := p.next().Pos
		r := p.parseAssignExpr()
		c := &ast.Comma{ExprBase: p.base(pos), L: e, R: r}
		e = c
	}
	return e
}

func (p *Parser) parseAssignExpr() ast.Expr {
	l := p.parseConditional()
	k := p.peek().Kind
	if k.IsAssignOp() {
		pos := p.next().Pos
		r := p.parseAssignExpr()
		return &ast.Assign{ExprBase: p.base(pos), Op: k, L: l, R: r}
	}
	return l
}

func (p *Parser) parseConditional() ast.Expr {
	c := p.parseBinary(0)
	if p.peek().Kind == token.Question {
		pos := p.next().Pos
		t := p.parseExpr()
		p.expect(token.Colon)
		f := p.parseConditional()
		return &ast.Cond{ExprBase: p.base(pos), C: c, T: t, F: f}
	}
	return c
}

// binPrec returns the binding power of binary operators; -1 if not binary.
func binPrec(k token.Kind) int {
	switch k {
	case token.OrOr:
		return 1
	case token.AndAnd:
		return 2
	case token.Pipe:
		return 3
	case token.Caret:
		return 4
	case token.Amp:
		return 5
	case token.EqEq, token.NotEq:
		return 6
	case token.Lt, token.Gt, token.Le, token.Ge:
		return 7
	case token.Shl, token.Shr:
		return 8
	case token.Plus, token.Minus:
		return 9
	case token.Star, token.Slash, token.Percent:
		return 10
	}
	return -1
}

func (p *Parser) parseBinary(minPrec int) ast.Expr {
	l := p.parseUnary()
	for {
		k := p.peek().Kind
		prec := binPrec(k)
		if prec < 0 || prec < minPrec {
			return l
		}
		pos := p.next().Pos
		r := p.parseBinary(prec + 1)
		l = &ast.Binary{ExprBase: p.base(pos), Op: k, L: l, R: r}
	}
}

func (p *Parser) parseUnary() ast.Expr {
	t := p.peek()
	switch t.Kind {
	case token.Plus:
		p.next()
		return p.parseUnary() // unary plus is a no-op
	case token.Minus, token.Not, token.Tilde, token.Amp, token.Star:
		p.next()
		x := p.parseUnary()
		return &ast.Unary{ExprBase: p.base(t.Pos), Op: t.Kind, X: x}
	case token.Inc, token.Dec:
		p.next()
		x := p.parseUnary()
		return &ast.Unary{ExprBase: p.base(t.Pos), Op: t.Kind, X: x}
	case token.KwSizeof:
		p.next()
		if p.peek().Kind == token.LParen && p.typeStartsAt(1) {
			p.next() // (
			base, _ := p.parseDeclSpecs()
			ty, _ := p.parseDeclarator(base)
			p.expect(token.RParen)
			return &ast.SizeofExpr{ExprBase: p.base(t.Pos), Of: ty}
		}
		x := p.parseUnary()
		return &ast.SizeofExpr{ExprBase: p.base(t.Pos), X: x}
	case token.LParen:
		// Cast or parenthesized expression.
		if p.typeStartsAt(1) {
			p.next() // (
			base, _ := p.parseDeclSpecs()
			ty, _ := p.parseDeclarator(base)
			p.expect(token.RParen)
			x := p.parseUnary()
			return &ast.Cast{ExprBase: p.base(t.Pos), To: ty, X: x}
		}
	}
	return p.parsePostfix()
}

// typeStartsAt reports whether the token at lookahead offset n begins a
// type name (for cast/sizeof disambiguation).
func (p *Parser) typeStartsAt(n int) bool {
	t := p.peekAt(n)
	switch t.Kind {
	case token.KwInt, token.KwLong, token.KwShort, token.KwChar, token.KwFloat,
		token.KwDouble, token.KwVoid, token.KwUnsigned, token.KwSigned,
		token.KwStruct, token.KwUnion, token.KwEnum, token.KwConst, token.KwVolatile:
		return true
	case token.Ident:
		_, ok := p.typedefs[t.Text]
		return ok
	}
	return false
}

func (p *Parser) parsePostfix() ast.Expr {
	e := p.parsePrimary()
	for {
		t := p.peek()
		switch t.Kind {
		case token.LBracket:
			p.next()
			idx := p.parseExpr()
			p.expect(token.RBracket)
			e = &ast.Index{ExprBase: p.base(t.Pos), X: e, I: idx}
		case token.Dot:
			p.next()
			name := p.expect(token.Ident).Text
			e = &ast.Member{ExprBase: p.base(t.Pos), X: e, Name: name}
		case token.Arrow:
			p.next()
			name := p.expect(token.Ident).Text
			e = &ast.Member{ExprBase: p.base(t.Pos), X: e, Name: name, Arrow: true}
		case token.LParen:
			p.next()
			var args []ast.Expr
			if p.peek().Kind != token.RParen {
				for {
					args = append(args, p.parseAssignExpr())
					if !p.accept(token.Comma) {
						break
					}
				}
			}
			p.expect(token.RParen)
			e = &ast.Call{ExprBase: p.base(t.Pos), Fun: e, Args: args}
		case token.Inc, token.Dec:
			p.next()
			e = &ast.Postfix{ExprBase: p.base(t.Pos), Op: t.Kind, X: e}
		default:
			return e
		}
	}
}

func (p *Parser) parsePrimary() ast.Expr {
	t := p.peek()
	switch t.Kind {
	case token.Ident:
		p.next()
		if v, ok := p.enums[t.Text]; ok {
			return &ast.IntLit{ExprBase: p.base(t.Pos), Value: v, Text: t.Text}
		}
		return &ast.Ident{ExprBase: p.base(t.Pos), Name: t.Text}
	case token.IntLit:
		p.next()
		v, err := strconv.ParseInt(trimSuffix(t.Text), 0, 64)
		if err != nil {
			// May overflow int64 for unsigned literals; try unsigned.
			u, uerr := strconv.ParseUint(trimSuffix(t.Text), 0, 64)
			if uerr != nil {
				p.errorf(t.Pos, "bad integer literal %q", t.Text)
			}
			v = int64(u)
		}
		return &ast.IntLit{ExprBase: p.base(t.Pos), Value: v, Text: t.Text}
	case token.FloatLit:
		p.next()
		text := strings.TrimRight(t.Text, "fFlL")
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			p.errorf(t.Pos, "bad float literal %q", t.Text)
		}
		return &ast.FloatLit{ExprBase: p.base(t.Pos), Value: v, Text: t.Text}
	case token.CharLit:
		p.next()
		return &ast.CharLit{ExprBase: p.base(t.Pos), Value: charValue(t.Text)}
	case token.StringLit:
		p.next()
		return &ast.StringLit{ExprBase: p.base(t.Pos), Value: unescape(t.Text)}
	case token.LParen:
		p.next()
		e := p.parseExpr()
		p.expect(token.RParen)
		return &ast.Paren{ExprBase: p.base(t.Pos), X: e}
	}
	p.errorf(t.Pos, "expected expression, got %s", t)
	p.next()
	return &ast.IntLit{ExprBase: p.base(t.Pos), Value: 0, Text: "0"}
}

func trimSuffix(s string) string {
	for len(s) > 0 {
		c := s[len(s)-1]
		if c == 'u' || c == 'U' || c == 'l' || c == 'L' {
			s = s[:len(s)-1]
			continue
		}
		break
	}
	return s
}

func charValue(lit string) int64 {
	// lit includes quotes: 'a' or '\n' etc.
	if len(lit) < 3 {
		return 0
	}
	body := lit[1 : len(lit)-1]
	if body[0] != '\\' {
		return int64(body[0])
	}
	if len(body) < 2 {
		return 0
	}
	switch body[1] {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	case '\\':
		return '\\'
	case '\'':
		return '\''
	case '"':
		return '"'
	case 'x':
		v, _ := strconv.ParseInt(body[2:], 16, 64)
		return v
	}
	return int64(body[1])
}

func unescape(lit string) string {
	if len(lit) >= 2 && lit[0] == '"' {
		lit = lit[1 : len(lit)-1]
	}
	var b strings.Builder
	for i := 0; i < len(lit); i++ {
		c := lit[i]
		if c == '\\' && i+1 < len(lit) {
			i++
			switch lit[i] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '0':
				b.WriteByte(0)
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case '\'':
				b.WriteByte('\'')
			default:
				b.WriteByte(lit[i])
			}
			continue
		}
		b.WriteByte(c)
	}
	return b.String()
}
