package passes

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
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

// keySink keeps the compiler from discarding a measured key call.
var keySink vnKey

// TestValueKeyAllocs pins that keying a pure instruction whose operands
// are already numbered allocates nothing — the key is a struct of
// integers, and numbering hits the per-operand cache.
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
	wide := b.Append(&ir.Instr{Op: ir.OpSelect, Cls: ir.I64,
		Args: []ir.Value{idx, p, gep, ir.ConstInt(ir.I64, 9), sel}})
	vn := newValueNumbers()
	for _, in := range []*ir.Instr{idx, gep, sel, cvt, wide} {
		vn.key(in)
		if got := testing.AllocsPerRun(100, func() { keySink = vn.key(in) }); got != 0 {
			t.Errorf("key(%s): %v allocs/op, want 0", in.Op, got)
		}
	}
}

// TestStampTableWrap pins that the stamped tables survive their stamp
// wrapping around: entries made under the last stamp before the wrap
// must not read as live under the first stamp after it.
func TestStampTableWrap(t *testing.T) {
	var tab stampTable[vnKey, *ir.Instr]
	in := &ir.Instr{Op: ir.OpAdd}
	k := vnKey{op: ir.OpAdd, nargs: 2}
	tab.stamp = math.MaxUint32 - 1
	tab.next()
	if _, ok := tab.lookupOrInsert(&k, k.hash(), in); ok {
		t.Fatal("an empty table found the key")
	}
	if prev, ok := tab.lookupOrInsert(&k, k.hash(), &ir.Instr{}); !ok || prev != in {
		t.Fatalf("lookup under the same stamp returned %v, want the first instruction", prev)
	}
	tab.next()
	if prev, ok := tab.lookupOrInsert(&k, k.hash(), &ir.Instr{}); ok {
		t.Errorf("after the stamp wrapped, an entry of the previous stamp read as live: %v", prev)
	}

	fn := &ir.Func{Name: "t", Ret: ir.Void}
	ptr := fn.NewBlock("entry").Append(&ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, AllocSz: 8})
	mt := newMemTable()
	mt.start(fn)
	mt.stamp = math.MaxUint32
	mt.put(ptr, availMem{load: in})
	if e, ok := mt.get(ptr); !ok || e.load != in {
		t.Fatalf("memTable lost its entry before the wrap: %v, %v", e, ok)
	}
	mt.reset()
	if e, ok := mt.get(ptr); ok {
		t.Errorf("after the memTable stamp wrapped, an entry of the previous block read as live: %v", e)
	}
}

// TestStampTableGrow fills one stamp far past the initial capacity,
// with keys that share their low hash bits, and checks every key still
// finds its own value.
func TestStampTableGrow(t *testing.T) {
	var tab stampTable[int, int]
	tab.next()
	for i := 0; i < 1000; i++ {
		if _, ok := tab.lookupOrInsert(&i, uint32(i)<<8, -i); ok {
			t.Fatalf("key %d found before it was inserted", i)
		}
	}
	for i := 0; i < 1000; i++ {
		if v, ok := tab.lookupOrInsert(&i, uint32(i)<<8, 0); !ok || v != -i {
			t.Fatalf("key %d: got %d, %v, want %d", i, v, ok, -i)
		}
	}
	if tab.n != 1000 {
		t.Errorf("%d live slots, want 1000", tab.n)
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

// TestEarlyCSEScratchReuse runs earlycse on a function A and then, with
// the same scratch, on a function B whose instruction IDs, globals and
// constant pointers coincide with A's. One of those constants changes
// value in between, as when a freed constant's address is reused by a
// new one, so a number cached by pointer would go stale. B must come
// out exactly as it does from a fresh scratch: no value number,
// available expression, memTable entry (by ID or by pointer) or seen
// fact may leak from one call into the next.
func TestEarlyCSEScratchReuse(t *testing.T) {
	g, h := &ir.Global{Name: "g", Size: 8}, &ir.Global{Name: "h", Size: 8}
	c := ir.ConstInt(ir.I64, 5)
	build := func(name string) *ir.Func {
		fn := &ir.Func{Name: name, Ret: ir.I64}
		p := &ir.Param{Name: "p", Cls: ir.I64, Idx: 0}
		fn.Params = []*ir.Param{p}
		b := fn.NewBlock("entry")
		slot := b.Append(&ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, Name: "s", AllocSz: 8})
		x := b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{p, c}})
		y := b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{p, ir.ConstInt(ir.I64, 7)}})
		old := b.Append(&ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{slot}})
		ld := b.Append(&ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{g}})
		b.Append(&ir.Instr{Op: ir.OpMustNotAlias, Cls: ir.Void, Args: []ir.Value{g, h}})
		b.Append(&ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{slot, x}})
		s := b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{x, y}})
		s = b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{s, ld}})
		s = b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{s, old}})
		b.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void, Args: []ir.Value{s}})
		return fn
	}
	run := func(s *cseScratch, fn *ir.Func) string {
		mod := &ir.Module{Globals: []*ir.Global{g, h}, Funcs: []*ir.Func{fn}}
		s.earlyCSE(mod, fn, aa.NewManager(fn, false), nil)
		if problems := fn.Verify(); len(problems) != 0 {
			t.Fatalf("%s: verify: %v", fn.Name, problems)
		}
		return fn.String()
	}

	shared := newCSEScratch()
	a := run(shared, build("f"))
	c.I = 7
	got, want := run(shared, build("f")), run(newCSEScratch(), build("f"))
	if got != want {
		t.Errorf("B after A with one scratch:\n%s\nB with a fresh scratch:\n%s", got, want)
	}
	if a == want {
		t.Errorf("A and B compiled alike, so the test shows nothing:\n%s", a)
	}
}

// TestEarlyCSEConcurrent runs earlycse from several goroutines at once,
// as -j workers do, so they share the scratch pool: every result must
// print as the sequential one does.
func TestEarlyCSEConcurrent(t *testing.T) {
	mod := benchModule(t, cseSource(8))
	fn := mod.FindFunc("k")
	if fn == nil {
		t.Fatal("no k")
	}
	opts := DefaultOptions()
	mem2reg(fn, newAnalysisManager(mod, fn, &opts, nil, nil))
	run := func() string {
		clone := ir.CloneFunc(fn)
		earlyCSE(mod, clone, aa.NewManager(clone, true), nil)
		return clone.String()
	}
	want := run()
	const workers, rounds = 4, 8
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got[w] = append(got[w], run())
			}
		}()
	}
	wg.Wait()
	for w := range got {
		for r, text := range got[w] {
			if text != want {
				t.Fatalf("worker %d, round %d: IR differs from the sequential run:\n%s\nwant:\n%s", w, r, text, want)
			}
		}
	}
}

// earlyCSEMallocs returns the fewest heap allocations one earlycse call
// over a fresh copy of cseSource(n)'s loop function made in a few runs.
// The alias manager runs unseq-aa, as the OOElala pipeline does; its
// pair normalization allocates nothing (TestManagerAliasAllocs).
func earlyCSEMallocs(t *testing.T, n int) uint64 {
	mod := benchModule(t, cseSource(n))
	fn := mod.FindFunc("k")
	if fn == nil {
		t.Fatal("no k")
	}
	opts := DefaultOptions()
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		clone := ir.CloneFunc(fn)
		mem2reg(clone, newAnalysisManager(mod, clone, &opts, nil, nil))
		mgr := aa.NewManager(clone, true)
		runtime.ReadMemStats(&before)
		earlyCSE(mod, clone, mgr, nil)
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	return best
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestEarlyCSEAllocs pins that, once the scratch pool is warm, an
// earlycse call allocates a small fixed number of times however many
// blocks and instructions the function has: its tables are reused
// across calls rather than regrown.
func TestEarlyCSEAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("in -race builds sync.Pool drops a random share of Puts, so a warm call may build a fresh scratch")
	}
	// A collection empties the pool into its victim cache and makes the
	// next pool operation allocate a fresh per-P array: that counts
	// collections, not earlycse's tables, so none may run meanwhile.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	earlyCSEMallocs(t, 32) // warm the pool's tables to the larger size
	small, large := earlyCSEMallocs(t, 8), earlyCSEMallocs(t, 32)
	if small != large || large > 8 {
		t.Errorf("earlycse allocated %d times over cseSource(8) and %d over cseSource(32), want one small constant", small, large)
	}
	t.Logf("%d allocations per call", large)
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
