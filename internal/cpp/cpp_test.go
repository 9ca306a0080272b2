package cpp

import (
	"strings"
	"testing"

	"repro/internal/token"
)

func expand(t *testing.T, src string) string {
	t.Helper()
	pp := New(nil)
	toks := pp.Process("t.c", src)
	for _, e := range pp.Errors() {
		t.Fatalf("cpp error: %v", e)
	}
	var parts []string
	for _, tok := range toks {
		if tok.Text != "" {
			parts = append(parts, tok.Text)
		} else {
			parts = append(parts, tok.Kind.String())
		}
	}
	return strings.Join(parts, " ")
}

func TestObjectMacro(t *testing.T) {
	got := expand(t, "#define N 10\nint a[N];")
	if got != "int a [ 10 ] ;" {
		t.Errorf("got %q", got)
	}
}

func TestFunctionMacro(t *testing.T) {
	got := expand(t, "#define SQ(x) ((x)*(x))\nSQ(a+b);")
	if got != "( ( a + b ) * ( a + b ) ) ;" {
		t.Errorf("got %q", got)
	}
}

func TestCantAliasMacro(t *testing.T) {
	src := `#define CANT_ALIAS(a,b) ((a=a)&(b=b))
CANT_ALIAS(x, y);`
	got := expand(t, src)
	if got != "( ( x = x ) & ( y = y ) ) ;" {
		t.Errorf("got %q", got)
	}
}

func TestNestedMacro(t *testing.T) {
	got := expand(t, "#define A B\n#define B 42\nA;")
	if got != "42 ;" {
		t.Errorf("got %q", got)
	}
}

func TestSelfReferenceCutoff(t *testing.T) {
	got := expand(t, "#define X X\nX;")
	if got != "X ;" {
		t.Errorf("self-referential macro must not loop: got %q", got)
	}
}

func TestFunctionMacroWithoutParens(t *testing.T) {
	// A function-like macro name not followed by '(' is not expanded.
	got := expand(t, "#define F(x) x\nint F;")
	if got != "int F ;" {
		t.Errorf("got %q", got)
	}
}

func TestUndef(t *testing.T) {
	got := expand(t, "#define N 1\n#undef N\nN;")
	if got != "N ;" {
		t.Errorf("got %q", got)
	}
}

func TestIfdef(t *testing.T) {
	got := expand(t, "#define YES 1\n#ifdef YES\na;\n#else\nb;\n#endif")
	if got != "a ;" {
		t.Errorf("got %q", got)
	}
	got = expand(t, "#ifdef NO\na;\n#else\nb;\n#endif")
	if got != "b ;" {
		t.Errorf("got %q", got)
	}
}

func TestIfZero(t *testing.T) {
	got := expand(t, "#if 0\ndead;\n#endif\nlive;")
	if got != "live ;" {
		t.Errorf("got %q", got)
	}
}

func TestIfExpr(t *testing.T) {
	got := expand(t, "#define V 3\n#if V >= 2 && V < 5\nyes;\n#endif")
	if got != "yes ;" {
		t.Errorf("got %q", got)
	}
}

func TestNestedConditionals(t *testing.T) {
	src := `#if 1
#if 0
a;
#else
b;
#endif
#else
c;
#endif`
	if got := expand(t, src); got != "b ;" {
		t.Errorf("got %q", got)
	}
}

func TestElif(t *testing.T) {
	src := "#define V 2\n#if V == 1\na;\n#elif V == 2\nb;\n#else\nc;\n#endif"
	if got := expand(t, src); got != "b ;" {
		t.Errorf("got %q", got)
	}
}

func TestInclude(t *testing.T) {
	pp := New(map[string]string{"defs.h": "#define K 7\nint fromheader;"})
	toks := pp.Process("t.c", "#include \"defs.h\"\nint a = K;")
	for _, e := range pp.Errors() {
		t.Fatalf("%v", e)
	}
	var texts []string
	for _, tok := range toks {
		if tok.Text != "" {
			texts = append(texts, tok.Text)
		} else {
			texts = append(texts, tok.Kind.String())
		}
	}
	got := strings.Join(texts, " ")
	if got != "int fromheader ; int a = 7 ;" {
		t.Errorf("got %q", got)
	}
}

func TestUnknownSystemIncludeIgnored(t *testing.T) {
	got := expand(t, "#include <stdio.h>\nint a;")
	if got != "int a ;" {
		t.Errorf("got %q", got)
	}
}

func TestVariadicMacro(t *testing.T) {
	got := expand(t, "#define CALL(f, ...) f(__VA_ARGS__)\nCALL(g, 1, 2);")
	if got != "g ( 1 , 2 ) ;" {
		t.Errorf("got %q", got)
	}
}

func TestMacroArgumentsWithCommasInParens(t *testing.T) {
	got := expand(t, "#define ID(x) x\nID(f(a, b));")
	if got != "f ( a , b ) ;" {
		t.Errorf("got %q", got)
	}
}

func TestPredefine(t *testing.T) {
	pp := New(nil)
	if err := pp.Define("POLYBENCH_N", "512"); err != nil {
		t.Fatal(err)
	}
	toks := pp.Process("t.c", "int n = POLYBENCH_N;")
	found := false
	for _, tok := range toks {
		if tok.Kind == token.IntLit && tok.Text == "512" {
			found = true
		}
	}
	if !found {
		t.Errorf("predefined macro not expanded: %v", toks)
	}
}

func TestPerlbenchStyleMacro(t *testing.T) {
	// The SSPOPINT pattern from the paper's Fig. 2 (perlbench regexec.c).
	src := `#define SSPOPINT (PL_savestack[--PL_savestack_ix].any_i32)
*maxopenparen_p = SSPOPINT;`
	got := expand(t, src)
	want := "* maxopenparen_p = ( PL_savestack [ -- PL_savestack_ix ] . any_i32 ) ;"
	if got != want {
		t.Errorf("got %q\nwant %q", got, want)
	}
}

func TestIncludeGuardPattern(t *testing.T) {
	hdr := `#ifndef LIB_H
#define LIB_H
int guarded;
#endif`
	pp := New(map[string]string{"lib.h": hdr})
	toks := pp.Process("t.c", "#include \"lib.h\"\n#include \"lib.h\"\nint after;")
	for _, e := range pp.Errors() {
		t.Fatalf("%v", e)
	}
	count := 0
	for _, tok := range toks {
		if tok.Text == "guarded" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("include guard failed: 'guarded' declared %d times", count)
	}
}

func TestMacroUsedInsideMacroBody(t *testing.T) {
	src := `#define TWICE(x) ((x) + (x))
#define QUAD(x) TWICE(TWICE(x))
int v = QUAD(3);`
	got := expand(t, src)
	if got != "int v = ( ( ( ( 3 ) + ( 3 ) ) ) + ( ( ( 3 ) + ( 3 ) ) ) ) ;" {
		t.Errorf("got %q", got)
	}
}

func TestDefinedOperatorForms(t *testing.T) {
	src := `#define A 1
#if defined(A) && !defined(B)
yes;
#endif`
	if got := expand(t, src); got != "yes ;" {
		t.Errorf("got %q", got)
	}
}

func TestMacrosAccessor(t *testing.T) {
	pp := New(nil)
	pp.Process("t.c", "#define ONE 1\n#define TWO(x) ((x)+(x))\n")
	ms := pp.Macros()
	if m, ok := ms["ONE"]; !ok || m.IsFunc {
		t.Errorf("ONE: %+v", m)
	}
	if m, ok := ms["TWO"]; !ok || !m.IsFunc || len(m.Params) != 1 {
		t.Errorf("TWO: %+v", m)
	}
}
