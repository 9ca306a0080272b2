// Package vm compiles backend IR to a dense register-based bytecode and
// executes it with a flat dispatch loop. It is the run leg behind
// driver.Compilation.Exec; the tree-walking interpreter
// (internal/interp) is retained as the tests' oracle. The correctness
// contract is identical integer milli-cycles, retire counts, results,
// and sanitizer verdicts versus interp (DESIGN.md §9): the vm reuses
// interp's exported value model (interp.Val, ScalarBin, CompareVals,
// ConvertVal, CallBuiltin, Lane) and the canonical ir kernels, charges
// cycles and steps once per straight-line segment from prefix sums
// (exact, because milli-cycle sums do not depend on grouping), and
// reproduces interp's address assignment exactly (same global layout,
// same stack-disciplined frame allocator, same reserved function
// pseudo-address table).
package vm

import (
	"sync"

	"repro/internal/interp"
	"repro/internal/ir"
)

// Val is the runtime value type, shared with the tree-walker so both
// engines compute with the very same kernels.
type Val = interp.Val

type opcode uint8

const (
	opInvalid opcode = iota
	opAlloca
	opLoad
	opStore
	opGEP
	opBin    // generic binary op via interp.ScalarBin (rare shapes)
	opFAdd   // float-class add: the ScalarBin float path, inlined
	opFSub   // float-class sub
	opFMul   // float-class mul
	opIAdd   // int-class add (dynamic float tags fall back to the float kernel)
	opISub   // int-class sub
	opIMul   // int-class mul
	opIBits  // int-class and/or/xor/shl/shr (float tags are a hard error)
	opDivRem // Div/Rem with the zero trap
	opNeg
	opNot
	opCmp
	opSelect
	opConvert
	opCallFn       // direct call to a compiled function
	opCallBuiltin  // direct call resolved to a libm-style builtin
	opCallIndirect // callee address in a register
	opCallUndefined
	opBr
	opCondBr
	opRet
	opRetVoid
	opUBCheck
	opMemset
	opMemcpy
	opVecLoad
	opVecStore
	opVecSplat
	opVecBin
	opVecBinF // float-class lane-wise add/sub/mul/div/rem, inlined
	opVecBinI // int-class lane-wise binary op, inlined with tag guard
	opVecCmp  // lane-wise compare, inlined with tag guard
	opVecReduce
	opVecReduceFAdd // float-class add-reduction, inlined
	opVecIota
	opVecSelect
	opVecCall
	opFellThrough // non-terminated block reached at runtime
	opUnhandled   // op the engine does not implement, trapped lazily

	// Fused superinstructions: two adjacent IR instructions where the
	// first's only use is the second. One dispatch round executes both;
	// the pc counts two steps and carries both halves' costs (costK,
	// costK2), so segment charging sees the unfused totals. The dead
	// intermediate register is never written.
	opCmpBr       // cmp + condbr on its result
	opGEPLoad     // gep + scalar load through it
	opGEPStore    // gep + scalar store through it
	opGEPVecLoad  // gep + vector load through it
	opGEPVecStore // gep + vector store through it
)

// Cost kinds name the fixed per-op cycle costs; a Machine resolves them
// against its CostModel's milli-cycle form once at construction
// (costTab, then the per-function segCost prefix sums). Ops with
// data-dependent costs (memset/memcpy, builtin calls, veccall) use
// costZero here and add their cost in the handler, with the same
// integer expression as the interpreter.
const (
	costZero = iota
	costALU
	costALUHalf
	costRegMove
	costMemLoad
	costMemStore
	costBranch
	costDiv
	costVecMem
	costVecOp
	costVecOp2
	numCostKinds
)

// instr is one bytecode instruction. Operand fields a/b/c and the
// entries of xargs are register-file slots: the function's value
// registers, or one of the constant slots at the tail of the register
// file (see fnCode.consts). Branch targets are pre-resolved pc values.
type instr struct {
	op       opcode
	costK    uint8
	costK2   uint8 // fused superinstructions: the second half's cost kind
	cls      ir.Class
	unsigned bool
	irOp     ir.Op   // original opcode for opBin/opDivRem/opUnhandled
	pred     ir.Pred // opCmp, opVecBin with VecOp==Cmp
	vecOp    ir.Op
	dst      int32
	a, b, c  int32
	scale    int64
	off      int64
	width    int
	allocIdx int32
	vecIdx   int32 // per-function vec-destination buffer slot
	allocSz  int64
	target   int32 // opBr/opCondBr then-pc
	elseT    int32 // opCondBr else-pc
	fn       *fnCode
	callee   string
	meta     int // provenance id (opUBCheck)
	block    string
	xargs    []int32

	// tb/eb hold block pointers during compilation, patched to pc
	// indices once all blocks are laid out.
	tb, eb *ir.Block
}

// pcIRRef is the line-table entry for one bytecode pc: the IR
// instruction it executes, and for fused superinstructions the second
// instruction folded into the same dispatch round. The pad trap of an
// unterminated block has a zero entry.
type pcIRRef struct {
	a, b *ir.Instr
}

// fnCode is one compiled function.
type fnCode struct {
	name    string
	idx     int
	nParams int
	// numRegs counts the value registers; the register file holds them
	// followed by one slot per entry of consts.
	numRegs int
	// consts are the constant operands (literals, global and function
	// addresses) the function reads. A frame fills its tail slots with
	// them once, when the pool creates it; nothing writes them afterwards.
	consts     []Val
	numAllocas int
	// numVecDsts counts vec-producing instructions; each owns one lane
	// buffer slot per activation (see Machine.callFn).
	numVecDsts int
	code       []instr
	// steps is the step prefix sum over code: steps[pc] counts the
	// interpreter steps of code[:pc] (a fused pair counts 2, the
	// fell-through trap 0). segEnd[pc] is the exclusive end of the
	// straight-line segment holding pc: segments start at a block or
	// after a call and end at a terminator or a call (DESIGN.md §9).
	steps  []int32
	segEnd []int32
	// pcIR is the side line table, parallel to code: pc -> IR instr(s) +
	// source span. It is consulted only when a profile is exported, never
	// by the dispatch loop.
	pcIR []pcIRRef
	// profOff is this function's base offset into a Machine's flat
	// per-pc profile counter array (see Machine.Profile).
	profOff int
	// nonMeta counts instructions that occupy code bytes (everything but
	// mustnotalias), the input to the icache-penalty rule — the same
	// count interp.icachePenalized computes.
	nonMeta int
	empty   bool
}

// initCell is a global initializer: a cell value at an absolute address.
type initCell struct {
	addr int64
	c    cell
}

// Program is a compiled module: per-function bytecode plus the shared
// function pseudo-address table and global layout. A Program is
// immutable and can back any number of Machines.
type Program struct {
	fns       []*fnCode
	byName    map[string]*fnCode
	funcNames map[int64]string
	globals   map[string]int64
	// memTop is the allocator position after globals; Machines start
	// allocating frames from here, exactly like a fresh interp.Machine.
	memTop     int64
	globalInit []initCell
	// memPool recycles memory images across Machines of this program:
	// a released image (possibly grown past the initial slack) is cleared
	// and reused by the next New, so steady-state run loops stop paying
	// an image allocation per run.
	memPool sync.Pool
	// profCells is the total bytecode length across all functions — the
	// size of a Machine's flat profile counter array.
	profCells int
}

const memBase = 0x10000

type compiler struct {
	p         *Program
	funcAddrs map[string]int64
	// fn and fc are the function being compiled and its code; constIdx
	// holds its constant slots by value.
	fn       *ir.Func
	fc       *fnCode
	constIdx map[constKey]int32

	// Per-function tables, indexed by instruction ID (slot, uses) or
	// block ID (blockPC) and reused across the functions of one Compile.
	slot    []int32 // value register; -1 for an ID not in the body
	uses    []int32 // operand uses, metadata included
	blockPC []int32
}

type constKey struct {
	i  int64
	f  float64
	fl bool
}

// Compile translates a module to bytecode. Translation never fails:
// constructs the engine cannot execute compile to trap instructions that
// reproduce the interpreter's runtime error at the same program point,
// so unreachable oddities stay unobservable — exactly as they are under
// the tree-walker.
func Compile(mod *ir.Module) *Program {
	p := &Program{
		byName:  make(map[string]*fnCode),
		globals: make(map[string]int64),
	}
	c := &compiler{p: p, constIdx: make(map[constKey]int32)}
	c.funcAddrs, p.funcNames = interp.BuildFuncTable(mod)

	// Lay out globals with the same allocation rule as interp.New so
	// every address the two engines hand out is identical.
	next := int64(memBase)
	alloc := func(size int64) int64 {
		if size <= 0 {
			size = 8
		}
		a := next
		next += size + 32
		return a
	}
	for _, g := range mod.Globals {
		addr := alloc(int64(g.Size))
		p.globals[g.Name] = addr
		for off, init := range g.Init {
			if init.Cls.IsFloat() {
				p.globalInit = append(p.globalInit, initCell{addr + int64(off), cell{F: init.F, Fl: true}})
			} else {
				p.globalInit = append(p.globalInit, initCell{addr + int64(off), cell{I: init.I}})
			}
		}
	}
	p.memTop = next

	// Register every function shell first so calls resolve regardless of
	// definition order, then fill in the bodies.
	for i, f := range mod.Funcs {
		fc := &fnCode{name: f.Name, idx: i, nParams: len(f.Params)}
		p.fns = append(p.fns, fc)
		p.byName[f.Name] = fc
	}
	for i, f := range mod.Funcs {
		c.compileFunc(f, p.fns[i])
	}
	off := 0
	for _, fc := range p.fns {
		fc.profOff = off
		off += len(fc.code)
	}
	p.profCells = off
	return p
}

// operand encodes an IR value: instruction results and params map to
// value registers, everything constant-like to a constant slot.
func (c *compiler) operand(v ir.Value) int32 {
	switch x := v.(type) {
	case *ir.Const:
		if x.Cls.IsFloat() {
			return c.constRef(interp.FV(x.F))
		}
		return c.constRef(interp.IV(x.I))
	case *ir.Global:
		return c.constRef(interp.IV(c.p.globals[x.Name]))
	case *ir.FuncRef:
		return c.constRef(interp.IV(c.funcAddrs[x.Name]))
	}
	if s := c.regOf(v); s >= 0 {
		return s
	}
	// A use of a never-defined value reads as zero under the
	// interpreter's register map; encode a zero constant.
	return c.constRef(Val{})
}

// regOf returns the value register of a parameter or of an instruction
// in the body of the function being compiled, -1 for any other value.
// Parameters take the first registers, then instructions in layout
// order.
func (c *compiler) regOf(v ir.Value) int32 {
	switch x := v.(type) {
	case *ir.Instr:
		if b := x.Block(); b != nil && b.Fn == c.fn && uint(x.ID) < uint(len(c.slot)) {
			return c.slot[x.ID]
		}
	case *ir.Param:
		for i, p := range c.fn.Params {
			if p == x {
				return int32(i)
			}
		}
	}
	return -1
}

// pcOf returns the first pc of a block of the function being compiled,
// 0 for any other block.
func (c *compiler) pcOf(b *ir.Block) int32 {
	if b.Fn != c.fn || uint(b.ID) >= uint(len(c.blockPC)) {
		return 0
	}
	return c.blockPC[b.ID]
}

// resize returns s with length n, reallocating only when its capacity
// is short; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (c *compiler) constRef(v Val) int32 {
	k := constKey{v.I, v.F, v.Fl}
	if slot, ok := c.constIdx[k]; ok {
		return slot
	}
	slot := int32(c.fc.numRegs + len(c.fc.consts))
	c.fc.consts = append(c.fc.consts, v)
	c.constIdx[k] = slot
	return slot
}

// isBuiltin probes the shared builtin table (CallBuiltin is pure, so a
// zero-arg probe is safe).
func isBuiltin(name string) bool {
	_, ok, _ := interp.CallBuiltin(name, nil)
	return ok
}

func (c *compiler) compileFunc(f *ir.Func, fc *fnCode) {
	if f.Entry() == nil {
		fc.empty = true
		return
	}
	c.fn, c.fc = f, fc
	clear(c.constIdx)
	c.slot = resize(c.slot, f.NumIDs())
	for i := range c.slot {
		c.slot[i] = -1
	}
	next := int32(len(f.Params))
	// maxCode bounds the pcs: one per instruction but metadata, one trap
	// per unterminated block; fusion only saves some.
	maxCode := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			c.slot[in.ID] = next
			next++
			if in.Op != ir.OpMustNotAlias {
				maxCode++
			}
		}
		if b.Terminator() == nil {
			maxCode++
		}
	}
	fc.numRegs = int(next)

	// Use counts gate superinstruction fusion: a producer may only be
	// folded into its consumer when nothing else reads it (metadata uses
	// count too — conservative, never fuses away an observed value).
	// Only instructions can be fused producers, so only they are counted.
	c.uses = resize(c.uses, f.NumIDs())
	clear(c.uses)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if x, ok := a.(*ir.Instr); ok && c.regOf(x) >= 0 {
					c.uses[x.ID]++
				}
			}
		}
	}
	soleUse := func(v ir.Value) bool {
		x, ok := v.(*ir.Instr)
		return ok && c.regOf(x) >= 0 && c.uses[x.ID] == 1
	}

	c.blockPC = resize(c.blockPC, f.NumBlockIDs())
	clear(c.blockPC)
	code, pcIR := make([]instr, 0, maxCode), make([]pcIRRef, 0, maxCode)
	for _, b := range f.Blocks {
		start := int32(len(code))
		c.blockPC[b.ID] = start
		for _, in := range b.Instrs {
			if in.Op == ir.OpMustNotAlias {
				continue // metadata: emits no machine code
			}
			fc.nonMeta++
			ins := c.compileInstr(fc, in)
			switch ins.op {
			case opVecLoad, opVecSplat, opVecBin, opVecBinF, opVecBinI,
				opVecCmp, opVecIota, opVecSelect, opVecCall:
				// Vec-producing instructions each own a per-activation lane
				// buffer slot (see callFn); allocation happens once per
				// activation instead of once per execution.
				ins.vecIdx = int32(fc.numVecDsts)
				fc.numVecDsts++
			}
			if n := len(code); n > int(start) && len(in.Args) > 0 && soleUse(in.Args[0]) {
				if fused, ok := tryFuse(&code[n-1], &ins); ok {
					code[n-1] = fused
					pcIR[n-1].b = in
					continue
				}
			}
			code = append(code, ins)
			pcIR = append(pcIR, pcIRRef{a: in})
		}
		// A block whose last instruction is not a terminator falls
		// through at runtime under the interpreter; reproduce that as a
		// trap so the error (if ever reached) is identical.
		if n := len(code); n == int(start) || !isTerminator(code[n-1].op) {
			code = append(code, instr{op: opFellThrough, block: b.Name})
			pcIR = append(pcIR, pcIRRef{})
		}
	}
	// Patch branch targets now that every block has a pc.
	for i := range code {
		in := &code[i]
		if in.tb != nil {
			in.target = c.pcOf(in.tb)
			in.tb = nil
		}
		if in.eb != nil {
			in.elseT = c.pcOf(in.eb)
			in.eb = nil
		}
	}
	fc.code, fc.pcIR = code, pcIR

	// Step prefix sums and segment ends (walked backwards: a terminator
	// or call closes the segment that the pcs before it belong to).
	fc.steps = make([]int32, len(fc.code)+1)
	for pc := range fc.code {
		fc.steps[pc+1] = fc.steps[pc] + stepsOf(fc.code[pc].op)
	}
	fc.segEnd = make([]int32, len(fc.code))
	end := int32(len(fc.code))
	for pc := len(fc.code) - 1; pc >= 0; pc-- {
		if op := fc.code[pc].op; isTerminator(op) || op == opCallFn || op == opCallIndirect {
			end = int32(pc + 1)
		}
		fc.segEnd[pc] = end
	}
}

func isTerminator(op opcode) bool {
	switch op {
	case opBr, opCondBr, opCmpBr, opRet, opRetVoid, opFellThrough:
		return true
	}
	return false
}

// stepsOf is the number of interpreter steps one dispatch of op stands
// for: both halves of a fused pair, nothing for the fell-through trap
// (the interpreter errors after the block's last instruction without
// taking another step), one otherwise.
func stepsOf(op opcode) int32 {
	switch op {
	case opCmpBr, opGEPLoad, opGEPStore, opGEPVecLoad, opGEPVecStore:
		return 2
	case opFellThrough:
		return 0
	}
	return 1
}

// tryFuse merges ins into the previous bytecode instruction when prev's
// result feeds ins as its sole consumer. Returns the fused instruction
// and true, or false when the pair doesn't fuse.
func tryFuse(prev *instr, ins *instr) (instr, bool) {
	switch {
	case prev.op == opCmp && ins.op == opCondBr && ins.a == prev.dst:
		return instr{op: opCmpBr, costK: prev.costK, costK2: ins.costK,
			a: prev.a, b: prev.b, pred: prev.pred, unsigned: prev.unsigned,
			tb: ins.tb, eb: ins.eb}, true
	case prev.op == opGEP && ins.op == opLoad && ins.a == prev.dst:
		return instr{op: opGEPLoad, costK: prev.costK, costK2: ins.costK, dst: ins.dst,
			a: prev.a, b: prev.b, scale: prev.scale, off: prev.off,
			cls: ins.cls, unsigned: ins.unsigned}, true
	case prev.op == opGEP && ins.op == opStore && ins.a == prev.dst:
		return instr{op: opGEPStore, costK: prev.costK, costK2: ins.costK,
			a: prev.a, b: prev.b, c: ins.b, scale: prev.scale, off: prev.off}, true
	case prev.op == opGEP && ins.op == opVecLoad && ins.a == prev.dst:
		return instr{op: opGEPVecLoad, costK: prev.costK, costK2: ins.costK, dst: ins.dst,
			a: prev.a, b: prev.b, scale: prev.scale, off: prev.off,
			cls: ins.cls, width: ins.width, vecIdx: ins.vecIdx}, true
	case prev.op == opGEP && ins.op == opVecStore && ins.a == prev.dst:
		return instr{op: opGEPVecStore, costK: prev.costK, costK2: ins.costK,
			a: prev.a, b: prev.b, c: ins.b, scale: prev.scale, off: prev.off,
			cls: ins.cls, width: ins.width}, true
	}
	return instr{}, false
}

// ptrIsReg is the static register/memory pointer classification — the
// same rule as interp.classifyPtr: direct scalar alloca slots are
// register-class, everything else memory-class.
func ptrIsReg(v ir.Value) bool {
	in, ok := v.(*ir.Instr)
	return ok && in.Op == ir.OpAlloca && in.AllocSz <= 8
}

func (c *compiler) compileInstr(fc *fnCode, in *ir.Instr) instr {
	dst := c.slot[in.ID]
	arg := func(i int) int32 {
		if i < len(in.Args) {
			return c.operand(in.Args[i])
		}
		return c.constRef(Val{})
	}
	args := func(from int) []int32 {
		xs := make([]int32, 0, len(in.Args)-from)
		for i := from; i < len(in.Args); i++ {
			xs = append(xs, c.operand(in.Args[i]))
		}
		return xs
	}

	switch in.Op {
	case ir.OpAlloca:
		idx := fc.numAllocas
		fc.numAllocas++
		return instr{op: opAlloca, costK: costZero, dst: dst,
			allocIdx: int32(idx), allocSz: int64(in.AllocSz)}

	case ir.OpLoad:
		k := uint8(costMemLoad)
		if ptrIsReg(in.Args[0]) {
			k = costRegMove
		}
		return instr{op: opLoad, costK: k, dst: dst, a: arg(0),
			cls: in.Cls, unsigned: in.Unsigned}

	case ir.OpStore:
		k := uint8(costMemStore)
		if ptrIsReg(in.Args[0]) {
			k = costRegMove
		}
		return instr{op: opStore, costK: k, a: arg(0), b: arg(1)}

	case ir.OpGEP:
		return instr{op: opGEP, costK: costALUHalf, dst: dst,
			a: arg(0), b: arg(1), scale: int64(in.Scale), off: int64(in.Off)}

	case ir.OpAdd, ir.OpSub, ir.OpMul:
		// The class is static, so the ScalarBin float-vs-int dispatch is
		// resolved here: float class always takes the float kernel;
		// int class takes the fast integer path unless a dynamically
		// float-tagged operand shows up (the handler re-checks, exactly
		// as ScalarBin would).
		var op opcode
		switch {
		case in.Cls.IsFloat() && in.Op == ir.OpAdd:
			op = opFAdd
		case in.Cls.IsFloat() && in.Op == ir.OpSub:
			op = opFSub
		case in.Cls.IsFloat():
			op = opFMul
		case in.Op == ir.OpAdd:
			op = opIAdd
		case in.Op == ir.OpSub:
			op = opISub
		default:
			op = opIMul
		}
		return instr{op: op, costK: costALU, dst: dst, a: arg(0), b: arg(1),
			irOp: in.Op, cls: in.Cls, unsigned: in.Unsigned}

	case ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr:
		if in.Cls.IsFloat() {
			// Always a hard error at runtime; the generic handler
			// reproduces ScalarBin's message.
			return instr{op: opBin, costK: costALU, dst: dst, a: arg(0), b: arg(1),
				irOp: in.Op, cls: in.Cls, unsigned: in.Unsigned}
		}
		return instr{op: opIBits, costK: costALU, dst: dst, a: arg(0), b: arg(1),
			irOp: in.Op, cls: in.Cls, unsigned: in.Unsigned}

	case ir.OpDiv, ir.OpRem:
		return instr{op: opDivRem, costK: costDiv, dst: dst, a: arg(0), b: arg(1),
			irOp: in.Op, cls: in.Cls, unsigned: in.Unsigned}

	case ir.OpNeg:
		return instr{op: opNeg, costK: costALU, dst: dst, a: arg(0),
			cls: in.Cls, unsigned: in.Unsigned}

	case ir.OpNot:
		return instr{op: opNot, costK: costALU, dst: dst, a: arg(0),
			cls: in.Cls, unsigned: in.Unsigned}

	case ir.OpCmp:
		return instr{op: opCmp, costK: costALU, dst: dst, a: arg(0), b: arg(1),
			pred: in.Pred, unsigned: in.Unsigned}

	case ir.OpSelect:
		return instr{op: opSelect, costK: costALU, dst: dst,
			a: arg(0), b: arg(1), c: arg(2)}

	case ir.OpConvert:
		return instr{op: opConvert, costK: costALUHalf, dst: dst, a: arg(0),
			cls: in.Cls, unsigned: in.Unsigned}

	case ir.OpCall:
		if in.Callee == "" {
			// Indirect: first arg is the function pseudo-address,
			// resolved through the shared table at runtime.
			return instr{op: opCallIndirect, costK: costZero, dst: dst,
				a: arg(0), xargs: args(1), cls: in.Cls}
		}
		// The interpreter consults the builtin table before the module,
		// so the vm resolves in the same order — just once, at compile
		// time (the module cannot change afterwards).
		if isBuiltin(in.Callee) {
			return instr{op: opCallBuiltin, costK: costZero, dst: dst,
				xargs: args(0), callee: in.Callee, cls: in.Cls}
		}
		if fn, ok := c.p.byName[in.Callee]; ok {
			return instr{op: opCallFn, costK: costZero, dst: dst,
				xargs: args(0), fn: fn, callee: in.Callee, cls: in.Cls}
		}
		return instr{op: opCallUndefined, costK: costZero, callee: in.Callee}

	case ir.OpBr:
		return instr{op: opBr, costK: costBranch, tb: in.Target}

	case ir.OpCondBr:
		return instr{op: opCondBr, costK: costBranch, a: arg(0),
			tb: in.Then, eb: in.Else}

	case ir.OpRet:
		if len(in.Args) > 0 {
			return instr{op: opRet, costK: costZero, a: arg(0)}
		}
		return instr{op: opRetVoid, costK: costZero}

	case ir.OpUBCheck:
		return instr{op: opUBCheck, costK: costALU, a: arg(0), b: arg(1), meta: in.Meta}

	case ir.OpMemset:
		return instr{op: opMemset, costK: costZero,
			a: arg(0), b: arg(1), c: arg(2), scale: strideOr8(in.Scale)}

	case ir.OpMemcpy:
		return instr{op: opMemcpy, costK: costZero,
			a: arg(0), b: arg(1), c: arg(2), scale: strideOr8(in.Scale)}

	case ir.OpVecLoad:
		return instr{op: opVecLoad, costK: costVecMem, dst: dst, a: arg(0),
			cls: in.Cls, width: in.Width}

	case ir.OpVecStore:
		return instr{op: opVecStore, costK: costVecMem, a: arg(0), b: arg(1),
			cls: in.Cls, width: in.Width}

	case ir.OpVecSplat:
		return instr{op: opVecSplat, costK: costALU, dst: dst, a: arg(0), width: in.Width}

	case ir.OpVecBin:
		op := opVecBin
		switch {
		case in.VecOp == ir.OpCmp:
			op = opVecCmp
		case in.Cls.IsFloat():
			switch in.VecOp {
			case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem:
				op = opVecBinF
			}
			// Float-class bitwise lanes keep the generic handler, which
			// reproduces ScalarBin's hard error.
		default:
			op = opVecBinI
		}
		return instr{op: op, costK: costVecOp, dst: dst, a: arg(0), b: arg(1),
			vecOp: in.VecOp, pred: in.Pred, cls: in.Cls, unsigned: in.Unsigned, width: in.Width}

	case ir.OpVecReduce:
		op := opVecReduce
		if in.Cls.IsFloat() && in.VecOp == ir.OpAdd {
			op = opVecReduceFAdd
		}
		return instr{op: op, costK: costVecOp2, dst: dst, a: arg(0),
			vecOp: in.VecOp, cls: in.Cls, unsigned: in.Unsigned, width: in.Width}

	case ir.OpVecIota:
		return instr{op: opVecIota, costK: costALU, dst: dst, cls: in.Cls, width: in.Width}

	case ir.OpVecSelect:
		return instr{op: opVecSelect, costK: costVecOp, dst: dst,
			a: arg(0), b: arg(1), c: arg(2), width: in.Width}

	case ir.OpVecCall:
		return instr{op: opVecCall, costK: costZero, dst: dst,
			xargs: args(0), callee: in.Callee, width: in.Width}

	default:
		return instr{op: opUnhandled, costK: costZero, irOp: in.Op}
	}
}

func strideOr8(s int) int64 {
	if s <= 0 {
		return 8
	}
	return int64(s)
}
