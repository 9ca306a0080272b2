package vm

import (
	"math"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/ooe"
	"repro/internal/parser"
	"repro/internal/sema"
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
