package vm

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/ooe"
	"repro/internal/parser"
	"repro/internal/sema"
	"repro/internal/token"
)

// buildModule mirrors the interpreter's test module: f(x) = x*3 + g,
// with global g initialized to 5.
func buildModule() *ir.Module {
	m := &ir.Module{Name: "t"}
	g := &ir.Global{Name: "g", Size: 8, ElemClass: ir.I64,
		Init: map[int]ir.InitVal{0: {Cls: ir.I64, I: 5}}}
	m.Globals = append(m.Globals, g)

	f := &ir.Func{Name: "f", Ret: ir.I64}
	p := &ir.Param{Name: "x", Cls: ir.I64, Idx: 0}
	f.Params = []*ir.Param{p}
	b := f.NewBlock("entry")
	mul := b.Append(&ir.Instr{Op: ir.OpMul, Cls: ir.I64,
		Args: []ir.Value{p, ir.ConstInt(ir.I64, 3)}})
	ld := b.Append(&ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{g}})
	sum := b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{mul, ld}})
	b.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{sum}})
	m.Funcs = append(m.Funcs, f)
	return m
}

// runBoth executes the same entry on a fresh machine of each engine and
// asserts the full contract: result, cycles, and retired-instruction
// counts all bit-identical.
func runBoth(t *testing.T, mod *ir.Module, entry string, args ...int64) (int64, error) {
	t.Helper()
	ti := interp.New(mod, interp.DefaultCosts())
	tv := New(Compile(mod), interp.DefaultCosts())
	ri, erri := ti.RunArgs(entry, args...)
	rv, errv := tv.RunArgs(entry, args...)
	stripped := func(e error) string {
		if e == nil {
			return ""
		}
		s := e.Error()
		s = strings.TrimPrefix(s, "interp: ")
		return strings.TrimPrefix(s, "vm: ")
	}
	if stripped(erri) != stripped(errv) {
		t.Fatalf("error divergence: interp=%v vm=%v", erri, errv)
	}
	if erri != nil {
		return 0, errv
	}
	if ri != rv {
		t.Fatalf("result divergence: interp=%d vm=%d", ri, rv)
	}
	if ti.MilliCycles() != tv.MilliCycles() {
		t.Fatalf("cycle divergence: interp=%d vm=%d", ti.MilliCycles(), tv.MilliCycles())
	}
	if ti.Executed != tv.Executed {
		t.Fatalf("retired-count divergence: interp=%d vm=%d", ti.Executed, tv.Executed)
	}
	return rv, nil
}

func TestBasicEquivalence(t *testing.T) {
	res, err := runBoth(t, buildModule(), "f", 7)
	if err != nil {
		t.Fatal(err)
	}
	if res != 26 {
		t.Errorf("f(7) = %d want 26", res)
	}
}

func TestGlobalAccessorsMatchInterp(t *testing.T) {
	mod := buildModule()
	mi := interp.New(mod, interp.DefaultCosts())
	mv := New(Compile(mod), interp.DefaultCosts())
	ai, _ := mi.GlobalAddr("g")
	av, ok := mv.GlobalAddr("g")
	if !ok || ai != av {
		t.Fatalf("global address divergence: interp=%#x vm=%#x", ai, av)
	}
	if mv.ReadI64(av) != 5 {
		t.Errorf("g init = %d want 5", mv.ReadI64(av))
	}
	// Pinned mixed-class reinterpretation, same as the interpreter.
	mv.WriteF64(av, 6.75)
	if got := mv.ReadI64(av); got != 6 {
		t.Errorf("ReadI64 of float cell = %d want 6", got)
	}
	mv.WriteF64(av, math.NaN())
	if got := mv.ReadI64(av); got != 0 {
		t.Errorf("ReadI64 of NaN cell = %d want 0", got)
	}
	mv.WriteI64(av, 42)
	if got := mv.ReadF64(av); got != 42 {
		t.Errorf("ReadF64 of int cell = %g want 42", got)
	}
}

// TestRecursionAndCallCosts checks Go-recursion calls agree with the
// tree-walker on a function that actually re-enters itself.
func TestRecursionAndCallCosts(t *testing.T) {
	m := &ir.Module{Name: "t"}
	// fib(n) = n < 2 ? n : fib(n-1) + fib(n-2)
	f := &ir.Func{Name: "fib", Ret: ir.I64}
	p := &ir.Param{Name: "n", Cls: ir.I64, Idx: 0}
	f.Params = []*ir.Param{p}
	entry := f.NewBlock("entry")
	rec := f.NewBlock("rec")
	base := f.NewBlock("base")
	cmp := entry.Append(&ir.Instr{Op: ir.OpCmp, Cls: ir.I32, Pred: ir.Lt,
		Args: []ir.Value{p, ir.ConstInt(ir.I64, 2)}})
	entry.Append(&ir.Instr{Op: ir.OpCondBr, Cls: ir.Void, Args: []ir.Value{cmp},
		Then: base, Else: rec})
	base.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{p}})
	n1 := rec.Append(&ir.Instr{Op: ir.OpSub, Cls: ir.I64,
		Args: []ir.Value{p, ir.ConstInt(ir.I64, 1)}})
	n2 := rec.Append(&ir.Instr{Op: ir.OpSub, Cls: ir.I64,
		Args: []ir.Value{p, ir.ConstInt(ir.I64, 2)}})
	c1 := rec.Append(&ir.Instr{Op: ir.OpCall, Cls: ir.I64, Callee: "fib", Args: []ir.Value{n1}})
	c2 := rec.Append(&ir.Instr{Op: ir.OpCall, Cls: ir.I64, Callee: "fib", Args: []ir.Value{n2}})
	sum := rec.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{c1, c2}})
	rec.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{sum}})
	m.Funcs = append(m.Funcs, f)

	res, err := runBoth(t, m, "fib", 15)
	if err != nil {
		t.Fatal(err)
	}
	if res != 610 {
		t.Errorf("fib(15) = %d want 610", res)
	}
}

// TestIndirectCallThroughTable exercises the reserved pseudo-address
// path: take a function's address, call through it.
func TestIndirectCallThroughTable(t *testing.T) {
	m := buildModule()
	caller := &ir.Func{Name: "call_f", Ret: ir.I64}
	b := caller.NewBlock("entry")
	call := b.Append(&ir.Instr{Op: ir.OpCall, Cls: ir.I64,
		Args: []ir.Value{&ir.FuncRef{Name: "f"}, ir.ConstInt(ir.I64, 4)}})
	b.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{call}})
	m.Funcs = append(m.Funcs, caller)

	res, err := runBoth(t, m, "call_f")
	if err != nil {
		t.Fatal(err)
	}
	if res != 17 {
		t.Errorf("call_f() = %d want 17", res)
	}
}

// TestVMErrorAttribution checks vm errors carry the vm: prefix and the
// function name, mirroring the interpreter's attribution.
func TestVMErrorAttribution(t *testing.T) {
	m := &ir.Module{Name: "t"}
	f := &ir.Func{Name: "badfn", Ret: ir.I64}
	b := f.NewBlock("entry")
	div := b.Append(&ir.Instr{Op: ir.OpDiv, Cls: ir.I64,
		Args: []ir.Value{ir.ConstInt(ir.I64, 1), ir.ConstInt(ir.I64, 0)}})
	b.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{div}})
	m.Funcs = append(m.Funcs, f)

	mv := New(Compile(m), interp.DefaultCosts())
	_, err := mv.RunArgs("badfn")
	if err == nil {
		t.Fatal("division by zero must trap")
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "vm: ") || !strings.Contains(msg, "badfn") {
		t.Errorf("error %q must be attributed (vm: prefix + function name)", msg)
	}
}

// TestSanitizerProvenanceSurvivesTranslation pins that ubcheck
// provenance ids ride through bytecode compilation.
func TestSanitizerProvenanceSurvivesTranslation(t *testing.T) {
	m := &ir.Module{Name: "t"}
	f := &ir.Func{Name: "chk", Ret: ir.I64}
	p := &ir.Param{Name: "x", Cls: ir.Ptr, Idx: 0}
	f.Params = []*ir.Param{p}
	b := f.NewBlock("entry")
	b.Append(&ir.Instr{Op: ir.OpUBCheck, Cls: ir.Void, Meta: 7, Args: []ir.Value{p, p}})
	b.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{ir.ConstInt(ir.I64, 0)}})
	m.Funcs = append(m.Funcs, f)

	mi := interp.New(m, interp.DefaultCosts())
	mv := New(Compile(m), interp.DefaultCosts())
	if _, err := mi.RunArgs("chk", 123); err != nil {
		t.Fatal(err)
	}
	if _, err := mv.RunArgs("chk", 123); err != nil {
		t.Fatal(err)
	}
	fi, fv := mi.SanitizerFailures(), mv.SanitizerFailures()
	if len(fi) != 1 || len(fv) != 1 {
		t.Fatalf("want 1 failure each, got interp=%d vm=%d", len(fi), len(fv))
	}
	if *fi[0] != *fv[0] {
		t.Errorf("failure diverges: interp=%+v vm=%+v", *fi[0], *fv[0])
	}
	if fv[0].Meta != 7 || fv[0].Fn != "chk" {
		t.Errorf("provenance lost: %+v", *fv[0])
	}
}

// compileO0 lowers C source to unoptimized IR, where every local is an
// alloca.
func compileO0(t *testing.T, src string) *ir.Module {
	t.Helper()
	tu, perrs := parser.ParseFile("t.c", src, nil)
	for _, e := range perrs {
		t.Fatalf("parse: %v", e)
	}
	for _, e := range sema.Check(tu) {
		t.Fatalf("sema: %v", e)
	}
	reports := ooe.New(ooe.Config{}, ooe.FuncMap(tu)).AnalyzeUnit(tu)
	mod, errs := irgen.Generate(tu, reports, irgen.Options{})
	for _, e := range errs {
		t.Fatalf("irgen: %v", e)
	}
	return mod
}

// TestFrameAllocasReclaimed pins the stack-disciplined frame allocator:
// 10^4 calls to a helper with a 1 KiB local array must reuse one
// frame's addresses, so the memory image stays within a few frames
// instead of growing with the call count. Each call also reads the slot
// its predecessor wrote at the same address, which must read as zero.
// That read is of a never-written local, undefined in C, so the module
// stays unoptimized: at O0 every load reaches memory and the engines'
// zero-on-alloc rule decides it. Result, cycles and retired count must
// match the tree-walker.
func TestFrameAllocasReclaimed(t *testing.T) {
	mod := compileO0(t, `
int helper(int k) {
  int buf[256];
  buf[k & 255] = k + 1;
  return buf[k & 255] + buf[(k + 255) & 255];
}
int main() {
  int s = 0;
  for (int n = 0; n < 10000; n++) s += helper(n);
  return s;
}`)
	mi := interp.New(mod, interp.DefaultCosts())
	p := Compile(mod)
	mv := New(p, interp.DefaultCosts())
	ri, err := mi.RunArgs("main")
	if err != nil {
		t.Fatal(err)
	}
	rv, err := mv.RunArgs("main")
	if err != nil {
		t.Fatal(err)
	}
	if ri != rv || mi.MilliCycles() != mv.MilliCycles() || mi.Executed != mv.Executed {
		t.Fatalf("divergence: interp=(%d, %v, %d) vm=(%d, %v, %d)",
			ri, mi.MilliCycles(), mi.Executed, rv, mv.MilliCycles(), mv.Executed)
	}
	if want := int64(10000 * 10001 / 2); rv != want {
		t.Errorf("main() = %d want %d (a reused slot did not read as zero)", rv, want)
	}
	perCall := int64(256*4 + 32)
	if got := int64(len(mv.mem)) - (p.memTop - memBase); got > 4*perCall {
		t.Errorf("memory image holds %d cells past the globals after 10^4 calls, want at most %d (4 frames)", got, 4*perCall)
	}
	if mv.nextAddr != p.memTop {
		t.Errorf("allocator at %#x after main returned, want %#x", mv.nextAddr, p.memTop)
	}
}

// TestInstrSize pins the dispatched record's size: every handler reads
// it, so it stays at 64 bytes (eight words, one cache line) as chains add
// fields; per-step data such as cost kinds lives in fnCode.
func TestInstrSize(t *testing.T) {
	if n := unsafe.Sizeof(instr{}); n != 64 {
		t.Errorf("instr is %d bytes, want 64", n)
	}
}

// opsOf returns the op names of a compiled function's code.
func opsOf(p *Program, fn string) []string {
	var ops []string
	fc := p.byName[fn]
	for pc := range fc.code {
		ops = append(ops, fc.pcName(pc))
	}
	return ops
}

// TestMetadataUseDoesNotBlockFusion: a mustnotalias intrinsic emits no
// code and nothing reads a register through it, so a gep whose only
// other use is one still fuses into its load.
func TestMetadataUseDoesNotBlockFusion(t *testing.T) {
	m := &ir.Module{Name: "t"}
	a := &ir.Global{Name: "a", Size: 64, ElemClass: ir.I64}
	bg := &ir.Global{Name: "b", Size: 64, ElemClass: ir.I64}
	m.Globals = append(m.Globals, a, bg)
	f := &ir.Func{Name: "f", Ret: ir.I64}
	i := &ir.Param{Name: "i", Cls: ir.I64, Idx: 0}
	f.Params = []*ir.Param{i}
	b := f.NewBlock("entry")
	p := b.Append(&ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr, Scale: 8, Args: []ir.Value{a, i}})
	b.Append(&ir.Instr{Op: ir.OpMustNotAlias, Cls: ir.Void, Args: []ir.Value{p, bg}})
	v := b.Append(&ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{p}})
	b.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{v}})
	m.Funcs = append(m.Funcs, f)

	if got, want := strings.Join(opsOf(Compile(m), "f"), " "), "gep_load ret"; got != want {
		t.Errorf("code = %s, want %s", got, want)
	}
	if _, err := runBoth(t, m, "f", 3); err != nil {
		t.Fatal(err)
	}
}

// TestFusionStaysOnOneLine: instructions from two source lines never
// share a pc, so a profile sample's line covers all it executed.
func TestFusionStaysOnOneLine(t *testing.T) {
	m := &ir.Module{Name: "t"}
	a := &ir.Global{Name: "a", Size: 64, ElemClass: ir.I64}
	m.Globals = append(m.Globals, a)
	f := &ir.Func{Name: "f", Ret: ir.I64}
	i := &ir.Param{Name: "i", Cls: ir.I64, Idx: 0}
	f.Params = []*ir.Param{i}
	b := f.NewBlock("entry")
	at := func(line int, in *ir.Instr) *ir.Instr {
		in.Span.Start = token.Pos{File: "t.c", Line: line, Col: 1}
		return b.Append(in)
	}
	p := at(1, &ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr, Scale: 8, Args: []ir.Value{a, i}})
	v := at(2, &ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{p}})
	c := at(2, &ir.Instr{Op: ir.OpConvert, Cls: ir.I32, Args: []ir.Value{v}})
	q := at(2, &ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr, Scale: 8, Args: []ir.Value{a, c}})
	at(2, &ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{q}})
	m.Funcs = append(m.Funcs, f)

	if got, want := strings.Join(opsOf(Compile(m), "f"), " "), "gep load_conv_gep ret"; got != want {
		t.Errorf("code = %s, want %s", got, want)
	}
	if _, err := runBoth(t, m, "f", 3); err != nil {
		t.Fatal(err)
	}
}

// TestChainPrefixSplits: a load_conv or load_cmp prefix has no handler,
// so when no third instruction extends it the compiler emits its two
// halves apart.
func TestChainPrefixSplits(t *testing.T) {
	m := &ir.Module{Name: "t"}
	a := &ir.Global{Name: "a", Size: 8, ElemClass: ir.I64,
		Init: map[int]ir.InitVal{0: {Cls: ir.I64, I: 1 << 40}}}
	m.Globals = append(m.Globals, a)
	f := &ir.Func{Name: "f", Ret: ir.I64}
	b := f.NewBlock("entry")
	v := b.Append(&ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{a}})
	c := b.Append(&ir.Instr{Op: ir.OpConvert, Cls: ir.I32, Args: []ir.Value{v}})
	w := b.Append(&ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{a}})
	lt := b.Append(&ir.Instr{Op: ir.OpCmp, Cls: ir.I32, Pred: ir.Lt, Args: []ir.Value{c, w}})
	s := b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{lt, c}})
	b.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{s}})
	m.Funcs = append(m.Funcs, f)

	if got, want := strings.Join(opsOf(Compile(m), "f"), " "), "load convert load cmp iadd ret"; got != want {
		t.Errorf("code = %s, want %s", got, want)
	}
	if res, err := runBoth(t, m, "f"); err != nil || res != 1 {
		t.Fatalf("f() = %d, %v, want 1", res, err)
	}
}

// TestFMulFAddRoundsTheProduct: fmul_fadd rounds the product before it
// adds, as the interpreter's fmul and fadd do. With x = 1+2^-27 and
// c = -(1+2^-26), x*x+c is 0 with the product rounded and 2^-54 in one
// fused multiply-add, which the Go compiler may emit for x*y+z on arm64
// or with GOAMD64=v3.
func TestFMulFAddRoundsTheProduct(t *testing.T) {
	m := &ir.Module{Name: "t"}
	f := &ir.Func{Name: "f", Ret: ir.I64}
	b := f.NewBlock("entry")
	x, c := ir.ConstFloat(ir.F64, 1+0x1p-27), ir.ConstFloat(ir.F64, -(1+0x1p-26))
	p0 := b.Append(&ir.Instr{Op: ir.OpMul, Cls: ir.F64, Args: []ir.Value{x, x}})
	s0 := b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.F64, Args: []ir.Value{p0, c}})
	p1 := b.Append(&ir.Instr{Op: ir.OpMul, Cls: ir.F64, Args: []ir.Value{x, x}})
	s1 := b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.F64, Args: []ir.Value{c, p1}})
	s := b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.F64, Args: []ir.Value{s0, s1}})
	scaled := b.Append(&ir.Instr{Op: ir.OpMul, Cls: ir.F64, Args: []ir.Value{s, ir.ConstFloat(ir.F64, 0x1p54)}})
	r := b.Append(&ir.Instr{Op: ir.OpConvert, Cls: ir.I64, Args: []ir.Value{scaled}})
	b.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{r}})
	m.Funcs = append(m.Funcs, f)

	if got := strings.Count(strings.Join(opsOf(Compile(m), "f"), " "), "fmul_fadd"); got != 2 {
		t.Errorf("code has %d fmul_fadd pcs, want 2", got)
	}
	if res, err := runBoth(t, m, "f"); err != nil || res != 0 {
		t.Fatalf("f() = %d, %v, want 0", res, err)
	}
}
