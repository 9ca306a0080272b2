package passes

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/aa"
	"repro/internal/ir"
)

// TestEarlyCSEKeepsSplatWidths pins that the lane count is part of a
// pure instruction's identity: splats of one scalar at widths 4 and 8
// are different values, while a repeated width-8 splat is redundant.
func TestEarlyCSEKeepsSplatWidths(t *testing.T) {
	fn := &ir.Func{Name: "t", Ret: ir.Void}
	x := &ir.Param{Name: "x", Cls: ir.F64, Idx: 0}
	fn.Params = []*ir.Param{x}
	b := fn.NewBlock("entry")
	s4 := b.Append(&ir.Instr{Op: ir.OpVecSplat, Cls: ir.F64, Width: 4, Args: []ir.Value{x}})
	s8 := b.Append(&ir.Instr{Op: ir.OpVecSplat, Cls: ir.F64, Width: 8, Args: []ir.Value{x}})
	dup := b.Append(&ir.Instr{Op: ir.OpVecSplat, Cls: ir.F64, Width: 8, Args: []ir.Value{x}})
	use := b.Append(&ir.Instr{Op: ir.OpVecBin, Cls: ir.F64, Width: 8, VecOp: ir.OpAdd,
		Args: []ir.Value{s8, dup}})
	b.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void})
	mod := &ir.Module{Funcs: []*ir.Func{fn}}

	if n := earlyCSE(mod, fn, aa.NewManager(fn, false), nil); n != 1 {
		t.Fatalf("removed %d instructions, want 1 (the repeated width-8 splat)", n)
	}
	if got := b.Instrs[:2]; got[0] != s4 || got[1] != s8 {
		t.Fatalf("splats after earlycse: %v, want the width-4 and width-8 splats", got)
	}
	if use.Args[0] != s8 || use.Args[1] != s8 {
		t.Errorf("vecbin operands %v, want both the width-8 splat", use.Args)
	}
}

// keySink keeps the compiler from discarding a measured valueKey call.
var keySink vnKey

// TestValueKeyAllocs pins that numbering a pure instruction of up to
// three operands allocates nothing — the key is a comparable struct, not
// a formatted string.
func TestValueKeyAllocs(t *testing.T) {
	fn := &ir.Func{Name: "t", Ret: ir.Void}
	p := &ir.Param{Name: "p", Cls: ir.Ptr, Idx: 0}
	b := fn.NewBlock("entry")
	idx := b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{p, ir.ConstInt(ir.I64, 3)}})
	gep := b.Append(&ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr, Scale: 8, Off: 16,
		Args: []ir.Value{&ir.Global{Name: "a"}, idx}})
	sel := b.Append(&ir.Instr{Op: ir.OpSelect, Cls: ir.Ptr,
		Args: []ir.Value{idx, gep, &ir.FuncRef{Name: "f"}}})
	cvt := b.Append(&ir.Instr{Op: ir.OpConvert, Cls: ir.F64, Args: []ir.Value{ir.ConstFloat(ir.F64, 0.5)}})
	for _, in := range []*ir.Instr{idx, gep, sel, cvt} {
		if got := testing.AllocsPerRun(100, func() { keySink = valueKey(in) }); got != 0 {
			t.Errorf("valueKey(%s): %v allocs/op, want 0", in.Op, got)
		}
	}
}

// cseSource builds a function whose blocks repeat address computations,
// loads and stores through the annotation macro pattern, so earlycse
// numbers many pure instructions and forwards many loads.
func cseSource(n int) string {
	var sb strings.Builder
	sb.WriteString("double a[64]; double b[64];\n")
	sb.WriteString("void k(int n, double *p, double *q) {\n")
	sb.WriteString("  for (int i = 1; i < n; i++) {\n")
	for j := 0; j < n; j++ {
		fmt.Fprintf(&sb, "    (p[i] = p[i]) + (q[i-1] = q[i-1]);\n")
		fmt.Fprintf(&sb, "    p[i] = p[i] + a[i] * q[i-1] + %d.0;\n", j)
		fmt.Fprintf(&sb, "    b[i] = b[i] + a[i] * a[i-1];\n")
	}
	sb.WriteString("  }\n}\n")
	sb.WriteString("int main() { k(64, a, b); return (int)b[3]; }\n")
	return sb.String()
}

// BenchmarkEarlyCSE measures one earlycse run over a freshly lowered
// function (mem2reg first, as in the pipeline, so the block holds SSA
// values rather than only stack traffic).
func BenchmarkEarlyCSE(b *testing.B) {
	for _, n := range []int{8, 32} {
		b.Run(fmt.Sprintf("stmts=%d", n), func(b *testing.B) {
			mod := benchModule(b, cseSource(n))
			fn := mod.FindFunc("k")
			if fn == nil {
				b.Fatal("no k")
			}
			opts := DefaultOptions()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				clone := ir.CloneFunc(fn)
				am := newAnalysisManager(mod, clone, &opts, nil, nil)
				mem2reg(clone, am)
				mgr := aa.NewManager(clone, true)
				b.StartTimer()
				earlyCSE(mod, clone, mgr, nil)
			}
		})
	}
}

// TestUseRewriterTracksNewUsers builds functions whose blocks are not
// in dominance order, so an instruction is eliminated after some of its
// users were already rewritten to name it. The use lists are built at
// the call's first elimination; every later operand rewrite must be
// recorded, or the late replacement misses a user and leaves it naming
// a deleted instruction. A deleted user keeps its operands, as it does
// under a whole-function walk.
func TestUseRewriterTracksNewUsers(t *testing.T) {
	t.Run("instcombine", func(t *testing.T) {
		fn := &ir.Func{Name: "t", Ret: ir.I64}
		entry, use, def := fn.NewBlock("entry"), fn.NewBlock("use"), fn.NewBlock("def")
		entry.Append(&ir.Instr{Op: ir.OpBr, Cls: ir.Void, Target: def})
		// def dominates use but comes after it in fn.Blocks.
		x := &ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{ir.ConstInt(ir.I64, 3), ir.ConstInt(ir.I64, 4)}}
		y := use.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{x, ir.ConstInt(ir.I64, 0)}})
		z := use.Append(&ir.Instr{Op: ir.OpMul, Cls: ir.I64, Args: []ir.Value{y, ir.ConstInt(ir.I64, 2)}})
		use.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{z}})
		def.Append(x)
		def.Append(&ir.Instr{Op: ir.OpBr, Cls: ir.Void, Target: use})

		// y folds to x (z now names x), then x folds to 7.
		if n := instCombine(fn); n != 2 {
			t.Fatalf("combined %d, want 2", n)
		}
		if c, ok := z.Args[0].(*ir.Const); !ok || c.I != 7 {
			t.Errorf("z's operand is %v, want the constant 7", z.Args[0])
		}
		if y.Args[0] != x {
			t.Errorf("the deleted y was rewritten to %v", y.Args[0])
		}
		if problems := fn.Verify(); len(problems) != 0 {
			t.Errorf("verify: %v", problems)
		}
	})
	t.Run("earlycse-convert", func(t *testing.T) {
		fn := &ir.Func{Name: "t", Ret: ir.I32}
		p := &ir.Param{Name: "p", Cls: ir.I32, Idx: 0}
		fn.Params = []*ir.Param{p}
		entry, use, def := fn.NewBlock("entry"), fn.NewBlock("use"), fn.NewBlock("def")
		slot := entry.Append(&ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, Name: "s", AllocSz: 4})
		// A first elimination, so the lists exist before the convert.
		entry.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I32, Args: []ir.Value{p, ir.ConstInt(ir.I32, 2)}})
		entry.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I32, Args: []ir.Value{p, ir.ConstInt(ir.I32, 2)}})
		entry.Append(&ir.Instr{Op: ir.OpBr, Cls: ir.Void, Target: def})
		v := &ir.Instr{Op: ir.OpAdd, Cls: ir.I32, Args: []ir.Value{p, ir.ConstInt(ir.I32, 1)}}
		dup := &ir.Instr{Op: ir.OpAdd, Cls: ir.I32, Args: []ir.Value{p, ir.ConstInt(ir.I32, 1)}}
		st := use.Append(&ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{slot, dup}})
		// A signed value reloaded unsigned: forwarding turns the load
		// into a convert of dup.
		ld := use.Append(&ir.Instr{Op: ir.OpLoad, Cls: ir.I32, Unsigned: true, Args: []ir.Value{slot}})
		use.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{ld}})
		def.Append(v)
		def.Append(dup)
		def.Append(&ir.Instr{Op: ir.OpBr, Cls: ir.Void, Target: use})
		mod := &ir.Module{Funcs: []*ir.Func{fn}}

		if n := earlyCSE(mod, fn, aa.NewManager(fn, false), nil); n != 3 {
			t.Fatalf("removed %d, want 3", n)
		}
		if ld.Op != ir.OpConvert || ld.Args[0] != v {
			t.Errorf("load became %s %v, want a convert of v", ld.Op, ld.Args)
		}
		if st.Args[1] != v {
			t.Errorf("store value is %v, want v", st.Args[1])
		}
		if problems := fn.Verify(); len(problems) != 0 {
			t.Errorf("verify: %v", problems)
		}
	})
}
