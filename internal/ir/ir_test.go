package ir

import (
	"strings"
	"testing"
)

// makeLoopFn builds:  entry -> header -> {body -> header | exit}
// with a canonical counted loop over an alloca induction variable.
func makeLoopFn() (*Func, *Block, *Block, *Block, *Block) {
	f := &Func{Name: "loopy", Ret: I32}
	entry := f.NewBlock("entry")
	header := f.NewBlock("header")
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")

	iv := entry.Append(&Instr{Op: OpAlloca, Cls: Ptr, Name: "i", AllocSz: 4})
	entry.Append(&Instr{Op: OpStore, Cls: Void, Args: []Value{iv, ConstInt(I32, 0)}})
	entry.Append(&Instr{Op: OpBr, Cls: Void, Target: header})

	ld := header.Append(&Instr{Op: OpLoad, Cls: I32, Args: []Value{iv}})
	cmp := header.Append(&Instr{Op: OpCmp, Cls: I32, Pred: Lt,
		Args: []Value{ld, ConstInt(I32, 10)}})
	header.Append(&Instr{Op: OpCondBr, Cls: Void, Args: []Value{cmp}, Then: body, Else: exit})

	ld2 := body.Append(&Instr{Op: OpLoad, Cls: I32, Args: []Value{iv}})
	add := body.Append(&Instr{Op: OpAdd, Cls: I32, Args: []Value{ld2, ConstInt(I32, 1)}})
	body.Append(&Instr{Op: OpStore, Cls: Void, Args: []Value{iv, add}})
	body.Append(&Instr{Op: OpBr, Cls: Void, Target: header})

	ret := exit.Append(&Instr{Op: OpLoad, Cls: I32, Args: []Value{iv}})
	exit.Append(&Instr{Op: OpRet, Cls: Void, Args: []Value{ret}})
	return f, entry, header, body, exit
}

func TestVerifyCleanFunction(t *testing.T) {
	f, _, _, _, _ := makeLoopFn()
	if problems := f.Verify(); len(problems) != 0 {
		t.Fatalf("verify: %v", problems)
	}
}

func TestVerifyCatchesUnterminated(t *testing.T) {
	f := &Func{Name: "bad"}
	b := f.NewBlock("entry")
	b.Append(&Instr{Op: OpAdd, Cls: I32, Args: []Value{ConstInt(I32, 1), ConstInt(I32, 2)}})
	if problems := f.Verify(); len(problems) == 0 {
		t.Error("missing terminator not caught")
	}
}

func TestVerifyCatchesForeignBlock(t *testing.T) {
	f := &Func{Name: "bad2"}
	b := f.NewBlock("entry")
	other := &Block{Name: "elsewhere"}
	b.Append(&Instr{Op: OpBr, Cls: Void, Target: other})
	if problems := f.Verify(); len(problems) == 0 {
		t.Error("branch to foreign block not caught")
	}
}

func TestVerifyCatchesNilOperand(t *testing.T) {
	f := &Func{Name: "bad3"}
	b := f.NewBlock("entry")
	b.Append(&Instr{Op: OpAdd, Cls: I32, Args: []Value{nil, ConstInt(I32, 2)}})
	b.Append(&Instr{Op: OpRet, Cls: Void})
	if problems := f.Verify(); len(problems) == 0 {
		t.Error("nil operand not caught")
	}
}

// TestVerifyCatchesUnnumberedInstr splices struct-literal instructions
// straight into a block, bypassing Append: the first keeps the zero ID
// the alloca already holds, the second claims an ID past NumIDs. Flat
// per-instruction tables in the passes index by ID, so Verify must flag
// both.
func TestVerifyCatchesUnnumberedInstr(t *testing.T) {
	for _, tc := range []struct {
		id   int
		want string
	}{
		{0, "duplicate instruction ID"},
		{1000, "ID outside [0, "},
	} {
		f, entry, _, _, _ := makeLoopFn()
		stray := &Instr{ID: tc.id, Op: OpAdd, Cls: I32, Args: []Value{ConstInt(I32, 1), ConstInt(I32, 2)}, blk: entry}
		entry.Instrs = append([]*Instr{stray}, entry.Instrs...)
		problems := f.Verify()
		if len(problems) != 1 || !strings.Contains(problems[0], tc.want) {
			t.Errorf("ID %d: Verify = %q, want one problem containing %q", tc.id, problems, tc.want)
		}
	}
	f, _, _, _, _ := makeLoopFn()
	if n, want := f.NumIDs(), f.NumInstrs(); n != want {
		t.Errorf("NumIDs = %d, want %d (one per appended instruction)", n, want)
	}
}

func TestSuccsAndPreds(t *testing.T) {
	f, entry, header, body, exit := makeLoopFn()
	if s := entry.Succs(); len(s) != 1 || s[0] != header {
		t.Errorf("entry succs: %v", s)
	}
	if s := header.Succs(); len(s) != 2 || s[0] != body || s[1] != exit {
		t.Errorf("header succs: %v", s)
	}
	preds := f.Preds()
	if len(preds.Of(header)) != 2 {
		t.Errorf("header preds: %v", preds.Of(header))
	}
	if len(preds.Of(exit)) != 1 || preds.Of(exit)[0] != header {
		t.Errorf("exit preds: %v", preds.Of(exit))
	}
}

func TestDominators(t *testing.T) {
	_, entry, header, body, exit := makeLoopFn()
	f := entry.Fn
	dt := ComputeDom(f)
	cases := []struct {
		a, b *Block
		want bool
	}{
		{entry, header, true},
		{entry, exit, true},
		{header, body, true},
		{header, exit, true},
		{body, exit, false},
		{body, header, false}, // back edge doesn't dominate
		{header, header, true},
	}
	for _, c := range cases {
		if got := dt.Dominates(c.a, c.b); got != c.want {
			t.Errorf("dom(%s, %s) = %v want %v", c.a.Name, c.b.Name, got, c.want)
		}
	}
}

func TestFindLoops(t *testing.T) {
	f, _, header, body, exit := makeLoopFn()
	dt := ComputeDom(f)
	loops := FindLoops(f, dt)
	if len(loops) != 1 {
		t.Fatalf("loops: %d", len(loops))
	}
	l := loops[0]
	if l.Header != header {
		t.Errorf("header: %s", l.Header.Name)
	}
	if len(l.Latches) != 1 || l.Latches[0] != body {
		t.Errorf("latches: %v", l.Latches)
	}
	if !l.Contains(header) || !l.Contains(body) || l.Contains(exit) {
		t.Errorf("body set wrong: %v", l.Blocks)
	}
	if len(l.Blocks) != 2 || l.Blocks[0] != header || l.Blocks[1] != body {
		t.Errorf("body list wrong: %v", l.Blocks)
	}
	if l.Preheader == nil || l.Preheader.Name != "entry0" {
		t.Errorf("preheader: %v", l.Preheader)
	}
	if len(l.Exits) != 1 || l.Exits[0][1] != exit {
		t.Errorf("exits: %v", l.Exits)
	}
	if l.Depth() != 1 || !l.IsInnermost(loops) {
		t.Errorf("depth/innermost wrong")
	}
}

func TestNestedLoops(t *testing.T) {
	// outer header -> inner header -> inner body -> inner header
	//              \-> exit          inner header -> outer latch -> outer header
	f := &Func{Name: "nest"}
	entry := f.NewBlock("entry")
	oh := f.NewBlock("outer")
	ih := f.NewBlock("inner")
	ib := f.NewBlock("ibody")
	ol := f.NewBlock("olatch")
	exit := f.NewBlock("exit")

	c := entry.Append(&Instr{Op: OpCmp, Cls: I32, Pred: Lt,
		Args: []Value{ConstInt(I32, 0), ConstInt(I32, 1)}})
	entry.Append(&Instr{Op: OpBr, Cls: Void, Target: oh})
	oh.Append(&Instr{Op: OpCondBr, Cls: Void, Args: []Value{c}, Then: ih, Else: exit})
	ih.Append(&Instr{Op: OpCondBr, Cls: Void, Args: []Value{c}, Then: ib, Else: ol})
	ib.Append(&Instr{Op: OpBr, Cls: Void, Target: ih})
	ol.Append(&Instr{Op: OpBr, Cls: Void, Target: oh})
	exit.Append(&Instr{Op: OpRet, Cls: Void})

	dt := ComputeDom(f)
	loops := FindLoops(f, dt)
	if len(loops) != 2 {
		t.Fatalf("loops: %d", len(loops))
	}
	var inner, outer *Loop
	for _, l := range loops {
		if l.Header == ih {
			inner = l
		}
		if l.Header == oh {
			outer = l
		}
	}
	if inner == nil || outer == nil {
		t.Fatal("loop headers not identified")
	}
	if inner.Parent != outer {
		t.Errorf("inner.Parent should be the outer loop")
	}
	if inner.Depth() != 2 || outer.Depth() != 1 {
		t.Errorf("depths: %d %d", inner.Depth(), outer.Depth())
	}
	if outer.IsInnermost(loops) {
		t.Error("outer is not innermost")
	}
	if !inner.IsInnermost(loops) {
		t.Error("inner is innermost")
	}
}

func TestPrinterRoundtripKeywords(t *testing.T) {
	f, _, _, _, _ := makeLoopFn()
	out := f.String()
	for _, want := range []string{"func @loopy", "alloca", "cmp.lt", "condbr", "ret"} {
		if !strings.Contains(out, want) {
			t.Errorf("printer output missing %q:\n%s", want, out)
		}
	}
}

func TestInsertBefore(t *testing.T) {
	f := &Func{Name: "ins"}
	b := f.NewBlock("entry")
	first := b.Append(&Instr{Op: OpAdd, Cls: I32, Args: []Value{ConstInt(I32, 1), ConstInt(I32, 2)}})
	b.Append(&Instr{Op: OpRet, Cls: Void})
	mid := &Instr{Op: OpMul, Cls: I32, Args: []Value{first, ConstInt(I32, 3)}}
	b.InsertBefore(1, mid)
	if b.Instrs[1] != mid || len(b.Instrs) != 3 {
		t.Errorf("insert position wrong: %v", b.Instrs)
	}
	if mid.Block() != b {
		t.Error("block backlink not set")
	}
	if mid.ID == first.ID {
		t.Error("IDs must be unique")
	}
}

func TestClassProperties(t *testing.T) {
	if I8.Size() != 1 || I16.Size() != 2 || I32.Size() != 4 || I64.Size() != 8 {
		t.Error("integer class sizes")
	}
	if F32.Size() != 4 || F64.Size() != 8 || Ptr.Size() != 8 {
		t.Error("float/ptr class sizes")
	}
	if !F64.IsFloat() || I64.IsFloat() {
		t.Error("IsFloat")
	}
}

func TestModuleLookups(t *testing.T) {
	m := &Module{Name: "m"}
	f := &Func{Name: "f"}
	g := &Global{Name: "g", Size: 8}
	m.Funcs = append(m.Funcs, f)
	m.Globals = append(m.Globals, g)
	if m.FindFunc("f") != f || m.FindFunc("nope") != nil {
		t.Error("FindFunc")
	}
	if m.FindGlobal("g") != g || m.FindGlobal("nope") != nil {
		t.Error("FindGlobal")
	}
}

func TestTerminatorPredicates(t *testing.T) {
	br := &Instr{Op: OpBr}
	ret := &Instr{Op: OpRet}
	add := &Instr{Op: OpAdd}
	if !br.IsTerminator() || !ret.IsTerminator() || add.IsTerminator() {
		t.Error("IsTerminator")
	}
	st := &Instr{Op: OpStore}
	ld := &Instr{Op: OpLoad}
	if !st.IsMemWrite() || st.IsMemRead() {
		t.Error("store effects")
	}
	if !ld.IsMemRead() || ld.IsMemWrite() {
		t.Error("load effects")
	}
}

func TestVerifyCatchesBlockIDs(t *testing.T) {
	f, _, header, body, _ := makeLoopFn()
	if problems := f.Verify(); len(problems) != 0 {
		t.Fatalf("clean function reported: %v", problems)
	}
	body.ID = header.ID
	if problems := f.Verify(); len(problems) == 0 || !strings.Contains(strings.Join(problems, "\n"), "share ID") {
		t.Errorf("duplicate block ID not caught: %v", problems)
	}
	body.ID = f.NumBlockIDs()
	if problems := f.Verify(); len(problems) == 0 || !strings.Contains(strings.Join(problems, "\n"), "outside") {
		t.Errorf("out-of-range block ID not caught: %v", problems)
	}
}

// threeExitLoop builds a loop whose three exiting blocks and three
// dedicated exits are laid out in f.Blocks in an order different from
// both the CFG walk and the exits' creation order.
func threeExitLoop() (f *Func, want [][2]*Block) {
	f = &Func{Name: "exits"}
	entry := f.NewBlock("entry")
	b2 := f.NewBlock("b2")
	h := f.NewBlock("h")
	x3 := f.NewBlock("x3")
	b1 := f.NewBlock("b1")
	x1 := f.NewBlock("x1")
	x2 := f.NewBlock("x2")
	c := entry.Append(&Instr{Op: OpCmp, Cls: I32, Pred: Lt, Args: []Value{ConstInt(I32, 0), ConstInt(I32, 1)}})
	entry.Append(&Instr{Op: OpBr, Cls: Void, Target: h})
	h.Append(&Instr{Op: OpCondBr, Cls: Void, Args: []Value{c}, Then: b1, Else: x1})
	b1.Append(&Instr{Op: OpCondBr, Cls: Void, Args: []Value{c}, Then: b2, Else: x2})
	b2.Append(&Instr{Op: OpCondBr, Cls: Void, Args: []Value{c}, Then: h, Else: x3})
	for _, x := range []*Block{x1, x2, x3} {
		x.Append(&Instr{Op: OpRet, Cls: Void})
	}
	return f, [][2]*Block{{b2, x3}, {h, x1}, {b1, x2}}
}

// TestLoopExitsInBlockOrder pins that a loop's body and exits come out
// in f.Blocks order on every call, so passes that insert code per exit
// (LICM's promotion sinks) number it the same way every compile.
func TestLoopExitsInBlockOrder(t *testing.T) {
	f, want := threeExitLoop()
	for i := 0; i < 100; i++ {
		loops := FindLoops(f, ComputeDom(f))
		if len(loops) != 1 {
			t.Fatalf("found %d loops, want 1", len(loops))
		}
		l := loops[0]
		if len(l.Exits) != len(want) {
			t.Fatalf("call %d: %d exits, want %d", i, len(l.Exits), len(want))
		}
		for j := range want {
			if l.Exits[j] != want[j] {
				t.Fatalf("call %d: exit %d is %s->%s, want %s->%s", i, j,
					l.Exits[j][0].Name, l.Exits[j][1].Name, want[j][0].Name, want[j][1].Name)
			}
		}
		if len(l.Blocks) != 3 || l.Blocks[0] != want[0][0] || l.Blocks[1] != want[1][0] || l.Blocks[2] != want[2][0] {
			t.Fatalf("call %d: body %v not in f.Blocks order", i, l.Blocks)
		}
	}
}
