// Package cpp implements a minimal C preprocessor over the lexer's token
// stream: object-like and function-like #define, #undef, #include from an
// in-memory file set, #if 0 / #ifdef / #ifndef / #else / #endif with
// constant-only conditions, and recursive macro expansion with the usual
// self-reference cutoff.
//
// This is deliberately a small subset — just enough to preprocess the
// paper's workloads (the CANT_ALIAS macro, SPEC-derived snippets that use
// function-like macros such as SSPOPINT, and Polybench kernels).
package cpp

import (
	"fmt"
	"strconv"

	"repro/internal/lexer"
	"repro/internal/telemetry"
	"repro/internal/token"
)

// Macro is a preprocessor macro definition.
type Macro struct {
	Name     string
	Params   []string // nil for object-like macros
	IsFunc   bool
	Body     []token.Token
	Variadic bool
}

// Error is a preprocessing error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Preprocessor expands a token stream.
type Preprocessor struct {
	files  map[string]string // include name -> source
	macros map[string]*Macro
	errs   []*Error
	depth  int

	tel *telemetry.Session
	// MacroExpansions and Includes count expansion work (always
	// maintained; exported to telemetry when a session is attached).
	MacroExpansions int
	Includes        int
}

// New returns a Preprocessor that resolves #include "name" against files.
func New(files map[string]string) *Preprocessor {
	return &Preprocessor{
		files:  files,
		macros: make(map[string]*Macro),
	}
}

// Errors returns accumulated preprocessing errors.
func (p *Preprocessor) Errors() []*Error { return p.errs }

// SetTelemetry attaches a session: Process brackets preprocessing in a
// phase/parse/cpp span and exports the expansion counters.
func (p *Preprocessor) SetTelemetry(tel *telemetry.Session) { p.tel = tel }

// Define installs a macro programmatically, like -D on a compiler
// command line: "name body" is lexed as C tokens and read as the
// operands of a #define, so name may carry a parameter list. A body
// that fails to lex is an error.
func (p *Preprocessor) Define(name, body string) error {
	toks, errs := lexer.Tokenize("<command-line>", name+" "+body)
	if len(errs) > 0 {
		return &Error{Pos: errs[0].Pos, Msg: fmt.Sprintf("-D %s: %s", name, errs[0].Msg)}
	}
	p.define(toks, token.Pos{File: "<command-line>", Line: 1, Col: 1})
	return nil
}

// Macros returns the live macro table (for tests).
func (p *Preprocessor) Macros() map[string]*Macro { return p.macros }

func (p *Preprocessor) errorf(pos token.Pos, format string, args ...any) {
	p.errs = append(p.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// lineTok pairs a token with a start-of-line marker.
type lineTok struct {
	tok     token.Token
	newline bool // a newline preceded this token
}

func lexAll(file, src string) ([]lineTok, []*lexer.Error) {
	l := lexer.New(file, src)
	var out []lineTok
	first := true
	for {
		t, nl := l.NextWithNL()
		if first {
			nl = true
			first = false
		}
		out = append(out, lineTok{tok: t, newline: nl})
		if t.Kind == token.EOF {
			break
		}
	}
	return out, l.Errors()
}

// Process preprocesses src (named file) and returns the expanded tokens,
// without the trailing EOF.
func (p *Preprocessor) Process(file, src string) []token.Token {
	stop := p.tel.Span("phase/parse/cpp")
	lts, lerrs := lexAll(file, src)
	for _, e := range lerrs {
		p.errorf(e.Pos, "%s", e.Msg)
	}
	out := p.processTokens(lts)
	stop()
	p.tel.Count("cpp/macro_expansions", int64(p.MacroExpansions))
	p.tel.Count("cpp/includes", int64(p.Includes))
	return out
}

// condState tracks one #if nesting level.
type condState struct {
	active      bool // tokens in this branch are emitted
	takenBranch bool // some branch of this #if chain was already taken
	parentLive  bool
}

func (p *Preprocessor) processTokens(lts []lineTok) []token.Token {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > 32 {
		p.errorf(token.Pos{}, "include depth exceeded")
		return nil
	}

	var out []token.Token
	var conds []condState
	live := func() bool {
		for _, c := range conds {
			if !c.active {
				return false
			}
		}
		return true
	}

	i := 0
	for i < len(lts) {
		lt := lts[i]
		if lt.tok.Kind == token.EOF {
			break
		}
		// Directive: '#' at start of line.
		if lt.newline && lt.tok.Kind == token.Ident && lt.tok.Text == "#" {
			// Collect directive tokens up to next newline.
			j := i + 1
			var dir []token.Token
			for j < len(lts) && !lts[j].newline && lts[j].tok.Kind != token.EOF {
				dir = append(dir, lts[j].tok)
				j++
			}
			out = append(out, p.directive(dir, lt.tok.Pos, &conds, live())...)
			i = j
			continue
		}
		if !live() {
			i++
			continue
		}
		// Macro expansion.
		if lt.tok.Kind == token.Ident {
			if m, ok := p.macros[lt.tok.Text]; ok {
				consumed, expansion := p.expandMacro(m, lts, i)
				if consumed > 0 {
					p.MacroExpansions++
					out = append(out, expansion...)
					i += consumed
					continue
				}
			}
		}
		out = append(out, lt.tok)
		i++
	}
	if len(conds) != 0 {
		p.errorf(token.Pos{}, "unterminated #if")
	}
	return out
}

// directive handles one preprocessor directive and returns tokens to emit
// (non-empty only for #include).
func (p *Preprocessor) directive(dir []token.Token, pos token.Pos, conds *[]condState, live bool) []token.Token {
	if len(dir) == 0 {
		return nil // null directive
	}
	name := dir[0].Text
	if dir[0].Kind.IsKeyword() {
		name = dir[0].Kind.String() // e.g. "if", "else" lex as keywords
	}
	args := dir[1:]
	switch name {
	case "define":
		if live {
			p.define(args, pos)
		}
	case "undef":
		if live && len(args) >= 1 {
			delete(p.macros, args[0].Text)
		}
	case "include":
		if live {
			return p.includeFile(args, pos)
		}
	case "if":
		val := false
		if live {
			val = p.evalCond(args, pos)
		}
		*conds = append(*conds, condState{active: val, takenBranch: val, parentLive: live})
	case "ifdef", "ifndef":
		val := false
		if live && len(args) >= 1 {
			_, defined := p.macros[args[0].Text]
			val = defined == (name == "ifdef")
		}
		*conds = append(*conds, condState{active: val, takenBranch: val, parentLive: live})
	case "elif":
		if len(*conds) == 0 {
			p.errorf(pos, "#elif without #if")
			return nil
		}
		c := &(*conds)[len(*conds)-1]
		if c.takenBranch || !c.parentLive {
			c.active = false
		} else {
			c.active = p.evalCond(args, pos)
			c.takenBranch = c.active
		}
	case "else":
		if len(*conds) == 0 {
			p.errorf(pos, "#else without #if")
			return nil
		}
		c := &(*conds)[len(*conds)-1]
		c.active = c.parentLive && !c.takenBranch
		c.takenBranch = true
	case "endif":
		if len(*conds) == 0 {
			p.errorf(pos, "#endif without #if")
			return nil
		}
		*conds = (*conds)[:len(*conds)-1]
	case "pragma", "error", "warning", "line":
		// Ignored (pragma/line) or only meaningful in dead code for our
		// workloads (error/warning).
	default:
		p.errorf(pos, "unknown preprocessor directive #%s", name)
	}
	return nil
}

// evalCond evaluates a constant #if condition. Supported: integer
// literals, defined(X) / defined X, !, &&, ||, ==, !=, <, >, <=, >=, and
// parentheses. Undefined identifiers evaluate to 0, per C.
func (p *Preprocessor) evalCond(toks []token.Token, pos token.Pos) bool {
	e := &condEval{pp: p, toks: toks}
	v := e.orExpr()
	if e.bad {
		p.errorf(pos, "unsupported #if condition")
		return false
	}
	return v != 0
}

type condEval struct {
	pp   *Preprocessor
	toks []token.Token
	i    int
	bad  bool
}

func (e *condEval) peek() token.Token {
	if e.i < len(e.toks) {
		return e.toks[e.i]
	}
	return token.Token{Kind: token.EOF}
}

func (e *condEval) next() token.Token {
	t := e.peek()
	e.i++
	return t
}

func (e *condEval) orExpr() int64 {
	v := e.andExpr()
	for e.peek().Kind == token.OrOr {
		e.next()
		r := e.andExpr()
		if v != 0 || r != 0 {
			v = 1
		} else {
			v = 0
		}
	}
	return v
}

func (e *condEval) andExpr() int64 {
	v := e.cmpExpr()
	for e.peek().Kind == token.AndAnd {
		e.next()
		r := e.cmpExpr()
		if v != 0 && r != 0 {
			v = 1
		} else {
			v = 0
		}
	}
	return v
}

func (e *condEval) cmpExpr() int64 {
	v := e.unary()
	for {
		k := e.peek().Kind
		switch k {
		case token.EqEq, token.NotEq, token.Lt, token.Gt, token.Le, token.Ge:
			e.next()
			r := e.unary()
			var b bool
			switch k {
			case token.EqEq:
				b = v == r
			case token.NotEq:
				b = v != r
			case token.Lt:
				b = v < r
			case token.Gt:
				b = v > r
			case token.Le:
				b = v <= r
			case token.Ge:
				b = v >= r
			}
			if b {
				v = 1
			} else {
				v = 0
			}
		default:
			return v
		}
	}
}

func (e *condEval) unary() int64 {
	t := e.peek()
	switch t.Kind {
	case token.Not:
		e.next()
		if e.unary() == 0 {
			return 1
		}
		return 0
	case token.Minus:
		e.next()
		return -e.unary()
	case token.LParen:
		e.next()
		v := e.orExpr()
		if e.peek().Kind == token.RParen {
			e.next()
		} else {
			e.bad = true
		}
		return v
	case token.IntLit:
		e.next()
		v, err := strconv.ParseInt(trimIntSuffix(t.Text), 0, 64)
		if err != nil {
			e.bad = true
		}
		return v
	case token.Ident:
		e.next()
		if t.Text == "defined" {
			name := ""
			if e.peek().Kind == token.LParen {
				e.next()
				name = e.next().Text
				if e.peek().Kind == token.RParen {
					e.next()
				}
			} else {
				name = e.next().Text
			}
			if _, ok := e.pp.macros[name]; ok {
				return 1
			}
			return 0
		}
		if m, ok := e.pp.macros[t.Text]; ok && !m.IsFunc && len(m.Body) == 1 && m.Body[0].Kind == token.IntLit {
			v, err := strconv.ParseInt(trimIntSuffix(m.Body[0].Text), 0, 64)
			if err == nil {
				return v
			}
		}
		return 0 // undefined identifiers are 0 in #if
	}
	e.bad = true
	return 0
}

func trimIntSuffix(s string) string {
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

func (p *Preprocessor) define(args []token.Token, pos token.Pos) {
	if len(args) == 0 {
		p.errorf(pos, "#define needs a name")
		return
	}
	name := args[0].Text
	if name == "" {
		name = args[0].Kind.String()
	}
	m := &Macro{Name: name}
	rest := args[1:]
	// Function-like only if '(' immediately follows the name: the lexer
	// has discarded spacing, so approximate with "next token is ( and the
	// param list parses" — standard corpora in this repo always write
	// function-like macros with the open paren adjacent.
	if len(rest) > 0 && rest[0].Kind == token.LParen && args[0].Pos.Col+len(name) == rest[0].Pos.Col {
		m.IsFunc = true
		i := 1
		for i < len(rest) && rest[i].Kind != token.RParen {
			if rest[i].Kind == token.Ident {
				m.Params = append(m.Params, rest[i].Text)
			} else if rest[i].Kind == token.Ellipsis {
				m.Variadic = true
			} else if rest[i].Kind != token.Comma {
				p.errorf(rest[i].Pos, "bad macro parameter list")
			}
			i++
		}
		if i < len(rest) {
			i++ // consume ')'
		}
		m.Body = append(m.Body, rest[i:]...)
	} else {
		m.Body = append(m.Body, rest...)
	}
	p.macros[name] = m
}

func (p *Preprocessor) includeFile(args []token.Token, pos token.Pos) []token.Token {
	if len(args) < 1 {
		p.errorf(pos, "#include needs a file")
		return nil
	}
	var name string
	switch args[0].Kind {
	case token.StringLit:
		name = unquote(args[0].Text)
	case token.Lt:
		// <header> form: join token texts until '>'.
		for _, t := range args[1:] {
			if t.Kind == token.Gt {
				break
			}
			if t.Text != "" {
				name += t.Text
			} else {
				name += t.Kind.String()
			}
		}
	default:
		p.errorf(pos, "bad #include")
		return nil
	}
	src, ok := p.files[name]
	if !ok {
		// System headers are not modelled; includes of unknown files are
		// ignored so workloads can carry decorative <stdio.h> includes.
		return nil
	}
	p.Includes++
	lts, lerrs := lexAll(name, src)
	for _, e := range lerrs {
		p.errorf(e.Pos, "%s", e.Msg)
	}
	return p.processTokens(lts)
}

func unquote(s string) string {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return s[1 : len(s)-1]
	}
	return s
}

// expandMacro tries to expand macro m whose name token is at lts[i].
// It returns the number of input lineToks consumed (0 if not applicable,
// e.g. function-like macro without following '(') and the expansion.
func (p *Preprocessor) expandMacro(m *Macro, lts []lineTok, i int) (int, []token.Token) {
	if !m.IsFunc {
		return 1, restamp(p.rescan(m.Body, map[string]bool{m.Name: true}), lts[i].tok.Pos)
	}
	// Function-like: need '(' next.
	j := i + 1
	if j >= len(lts) || lts[j].tok.Kind != token.LParen {
		return 0, nil
	}
	j++
	var cur []token.Token
	var argLists [][]token.Token
	depth := 1
	for j < len(lts) && lts[j].tok.Kind != token.EOF {
		t := lts[j].tok
		switch t.Kind {
		case token.LParen:
			depth++
			cur = append(cur, t)
		case token.RParen:
			depth--
			if depth == 0 {
				argLists = append(argLists, cur)
				j++
				goto done
			}
			cur = append(cur, t)
		case token.Comma:
			if depth == 1 {
				argLists = append(argLists, cur)
				cur = nil
			} else {
				cur = append(cur, t)
			}
		default:
			cur = append(cur, t)
		}
		j++
	}
	p.errorf(lts[i].tok.Pos, "unterminated macro invocation %s", m.Name)
	return 0, nil
done:
	if len(argLists) == 1 && len(argLists[0]) == 0 && len(m.Params) == 0 {
		argLists = nil
	}
	if len(argLists) < len(m.Params) || (len(argLists) > len(m.Params) && !m.Variadic) {
		p.errorf(lts[i].tok.Pos, "macro %s expects %d arguments, got %d",
			m.Name, len(m.Params), len(argLists))
		return j - i, nil
	}
	// Substitute parameters, fully expanding each argument first
	// (argument prescan), then rescan the result.
	argMap := make(map[string][]token.Token, len(m.Params))
	for k, param := range m.Params {
		argMap[param] = p.rescan(argLists[k], nil)
	}
	if m.Variadic {
		var va []token.Token
		for k := len(m.Params); k < len(argLists); k++ {
			if k > len(m.Params) {
				va = append(va, token.Token{Kind: token.Comma})
			}
			va = append(va, argLists[k]...)
		}
		argMap["__VA_ARGS__"] = p.rescan(va, nil)
	}
	// Body tokens take the invocation position (the "presumed location"
	// a compiler reports), so diagnostics and the run-leg profiler's
	// line attribution land on the code the programmer wrote, not on
	// the macro definition. Argument tokens keep their own use-site
	// positions.
	var substituted []token.Token
	for _, t := range m.Body {
		if t.Kind == token.Ident {
			if rep, ok := argMap[t.Text]; ok {
				substituted = append(substituted, rep...)
				continue
			}
		}
		t.Pos = lts[i].tok.Pos
		substituted = append(substituted, t)
	}
	return j - i, p.rescan(substituted, map[string]bool{m.Name: true})
}

// rescan re-expands macros inside toks, suppressing names in hide (the
// self-reference cutoff).
func (p *Preprocessor) rescan(toks []token.Token, hide map[string]bool) []token.Token {
	var out []token.Token
	lts := make([]lineTok, 0, len(toks)+1)
	for _, t := range toks {
		lts = append(lts, lineTok{tok: t})
	}
	lts = append(lts, lineTok{tok: token.Token{Kind: token.EOF}})
	i := 0
	for i < len(lts) && lts[i].tok.Kind != token.EOF {
		t := lts[i].tok
		if t.Kind == token.Ident && !hide[t.Text] {
			if m, ok := p.macros[t.Text]; ok {
				h2 := map[string]bool{t.Text: true}
				for k := range hide {
					h2[k] = true
				}
				consumed, exp := p.expandMacroHidden(m, lts, i, h2)
				if consumed > 0 {
					out = append(out, exp...)
					i += consumed
					continue
				}
			}
		}
		out = append(out, t)
		i++
	}
	return out
}

func (p *Preprocessor) expandMacroHidden(m *Macro, lts []lineTok, i int, hide map[string]bool) (int, []token.Token) {
	// Same as expandMacro but propagating the hide set through rescan.
	if !m.IsFunc {
		return 1, restamp(p.rescan(m.Body, hide), lts[i].tok.Pos)
	}
	consumed, exp := p.expandMacro(m, lts, i)
	return consumed, exp
}

// restamp points macro-body tokens at the expansion site. Without this,
// source attribution (error messages, the profiler's pc→source line
// table) lands on the macro definition line in the header instead of
// the invocation the programmer wrote.
func restamp(toks []token.Token, pos token.Pos) []token.Token {
	for i := range toks {
		toks[i].Pos = pos
	}
	return toks
}
