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

	// Fused superinstructions: a chain of two to four adjacent IR
	// instructions from one source line, each but the last read only by
	// the next (DESIGN.md §9). One dispatch executes the whole chain; the
	// pc counts one step per instruction and fnCode.kinds carries each
	// one's cost kind, so segment charging sees the unfused totals. The
	// dead intermediate registers are never written. The comment on
	// tryFuse lists the fields each one reads.
	opCmpBr            // cmp + condbr on its result
	opGEPLoad          // gep + scalar load through it
	opGEPStore         // gep + scalar store through it
	opGEPVecLoad       // gep + vector load through it
	opGEPVecStore      // gep + vector store through it
	opLoadConvGEP      // load + convert + gep on the converted value
	opIAddStore        // int add + store of the sum
	opFMulFAdd         // float mul + float add of the product
	opSelectConv       // select + convert of the selected value
	opLoadCmpBr        // load + cmp + condbr on its result
	opLoadConvGEPLoad  // load_conv_gep + scalar load through the address
	opLoadConvGEPStore // load_conv_gep + scalar store through the address

	// Register-slot forms: a load, a store or a chain whose memory access
	// goes through an alloca held in a register slot (see
	// compiler.giveHomes). Each reads or writes the slot register,
	// not memory, and keeps the name, steps and cost of its memory form.
	opLoadSlot             // load (the handler is convert's)
	opStoreSlot            // store
	opStoreConvSlot        // store that converts (the handler is convert's)
	opLoadConvGEPSlot      // load_conv_gep
	opLoadCmpBrSlot        // load_cmp_br
	opIAddStoreSlot        // iadd_store
	opLoadConvGEPLoadSlot  // load_conv_gep_load
	opLoadConvGEPStoreSlot // load_conv_gep_store

	// Chain prefixes: compile-time states of a chain that is emitted only
	// once its third instruction extends it (isPrefix). They have no
	// handler and never reach the dispatch loop.
	opLoadConv // load + convert, the prefix of load_conv_gep
	opLoadCmp  // load + cmp, the prefix of load_cmp_br

	numOpcodes
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

// maxChain is the most IR instructions one fused chain executes; folded
// slot loads and a trailing br come on top (compiler.seal, fallThrough).
const maxChain = 4

// instr is one bytecode instruction, the record the dispatch loop reads.
// Operand fields a/b/c are register-file slots: the function's value
// registers, or one of the constant slots at the tail of the register
// file (see fnCode.consts). Branch targets are pre-resolved pc values.
// Class, opcode and predicate fields hold ir.Class, ir.Op and ir.Pred
// narrowed to a byte; fields a fused chain's later halves need besides
// the first's carry the suffix 2 or 3. What few ops read lives
// elsewhere: a call's callee, arguments and target function, and a
// fell-through trap's block name, in fnCode.cold; an alloca's size in
// scale; a ubcheck's provenance id in off, and in target and elseT the
// first check of its run, at or after it, that compile time did not
// decide and the run's last pc (see linkChecks); an unhandled op's IR
// opcode in scale; the cost kinds of the IR instructions a pc executes
// in fnCode.kinds.
type instr struct {
	op                             opcode
	cls, cls2, cls3                uint8
	unsigned, unsigned2, unsigned3 bool
	irOp                           uint8 // opBin/opIBits/opDivRem: the IR opcode
	vecOp                          uint8
	pred                           uint8
	// pos is the operand index at which a fused chain's produced value
	// enters its two-operand half (gep, cmp, fadd).
	pos     uint8
	dst     int32
	a, b, c int32
	width   int32
	aux     int32 // opAlloca: frame alloca index; vec producers: lane buffer slot
	cold    int32 // calls, opFellThrough: index into fnCode.cold
	target  int32 // branch then-pc
	elseT   int32 // conditional branch else-pc
	scale   int64
	off     int64
}

// coldOp is the payload of a call or a fell-through trap, kept out of
// the dispatched record.
type coldOp struct {
	fn    *fnCode // opCallFn: the compiled callee
	name  string  // the callee, or the block that fell through
	xargs []int32 // call argument slots
}

// fnCode is one compiled function.
type fnCode struct {
	name    string
	idx     int
	nParams int
	// numRegs counts the value registers and, after them, the register
	// slots of allocas (compiler.giveHomes); the register file holds
	// them followed by one slot per entry of consts.
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
	cold       []coldOp
	// steps is the step prefix sum over code: steps[pc] counts the
	// interpreter steps of code[:pc] (a pc counts one per IR instruction
	// it executes, the fell-through trap 0). kinds is the cost kind of
	// every step: a pc executes consecutive IR instructions, so kinds
	// lists those of the function's instructions but metadata in layout
	// order, and code[pc]'s are kinds[steps[pc]:steps[pc+1]]. segEnd[pc]
	// is the exclusive end of the straight-line segment holding pc:
	// segments start at a block or after a call and end at a terminator
	// or a call (DESIGN.md §9); a block entered by a trailing br
	// continues its predecessor's.
	steps  []int32
	kinds  []uint8
	segEnd []int32
	// pcIR is the side line table, parallel to code: the IR instruction
	// each pc's op starts with (a fused chain's first; a folded slot load
	// and a trailing br, before and after it, share its source line, as
	// every instruction of the chain does), nil for the fell-through
	// trap. It is consulted only when a profile is exported and by
	// compile-time passes, never by the dispatch loop.
	pcIR []*ir.Instr
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

	// Per-function tables, indexed by instruction ID (slot, uses, info)
	// or block ID (blockPC) and reused across the functions of one
	// Compile.
	slot    []int32 // value register; -1 for an ID not in the body
	uses    []int32 // operand uses, metadata excluded
	blockPC []int32
	info    []instrInfo
	// allocas lists the function's allocas in layout order, and farUses
	// the loads and stores classifyUse left to the dominator tree.
	allocas, farUses []*ir.Instr
	// maxIDs and maxBlocks are the largest NumIDs and NumBlockIDs of the
	// module's functions; the tables are allocated once, at that size.
	maxIDs, maxBlocks int
	// firstHome is the first register slot; slots run up to numRegs.
	firstHome int32
	// dom holds the function's dominators, computed on the first query
	// the entry and same-block rules cannot answer (see dominates), in
	// tables reused across functions.
	dom   ir.DomTree
	domOK bool
	// plainFn turns the decisions off for the function being compiled
	// (see maxLinks).
	plainFn bool

	// code, pcIR and steps are the function's code, line table and step
	// prefix sums while compileFunc builds them (steps without its final
	// entry), and kinds its cost kinds.
	code  []instr
	pcIR  []*ir.Instr
	steps []int32
	kinds []uint8
	// blockStart is the first pc of the block being compiled, and slots
	// whether the function has register slots (see seal).
	blockStart int
	slots      bool

	// plain turns the compile-time decisions off: no ubcheck is decided
	// and no alloca gets a register slot. Only tests set it, as the
	// reference the decisions are checked against.
	plain bool
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
func Compile(mod *ir.Module) *Program { return compile(mod, false) }

func compile(mod *ir.Module, plain bool) *Program {
	p := &Program{
		byName:  make(map[string]*fnCode),
		globals: make(map[string]int64),
	}
	c := &compiler{p: p, constIdx: make(map[constKey]int32), plain: plain}
	c.funcAddrs, p.funcNames = interp.BuildFuncTable(mod)
	// Size the per-function tables for the largest function once.
	for _, f := range mod.Funcs {
		c.maxIDs = max(c.maxIDs, f.NumIDs())
		c.maxBlocks = max(c.maxBlocks, f.NumBlockIDs())
	}
	ids := make([]int32, 2*c.maxIDs)
	c.slot, c.uses = ids[:0:c.maxIDs], ids[c.maxIDs:c.maxIDs]
	c.blockPC = make([]int32, 0, c.maxBlocks)
	// One allocation backs both alloca lists up to 64 entries each.
	lists := make([]*ir.Instr, 128)
	c.allocas, c.farUses = lists[:0:64], lists[64:64]

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
	c.fn, c.fc, c.domOK, c.plainFn = f, fc, false, false
	clear(c.constIdx)
	c.slot = resize(c.slot, f.NumIDs())
	for i := range c.slot {
		c.slot[i] = -1
	}
	next := int32(len(f.Params))
	// maxCode bounds the pcs: one per instruction but metadata, one trap
	// per unterminated block; fusion only saves some.
	maxCode, small, checks := 0, 0, 0
	c.allocas = c.allocas[:0]
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			c.slot[in.ID] = next
			next++
			if in.Op != ir.OpMustNotAlias {
				maxCode++
			}
			switch {
			case in.Op == ir.OpAlloca && in.AllocSz <= 8:
				small++
				fallthrough
			case in.Op == ir.OpAlloca:
				c.allocas = append(c.allocas, in)
			case in.Op == ir.OpUBCheck:
				checks++
			}
		}
		if b.Terminator() == nil {
			maxCode++
		}
	}
	// One pass over the operands counts uses and, when the function needs
	// them, classifies the uses of its allocas (decide.go). Use counts gate
	// superinstruction fusion: a producer may only be folded into its
	// consumer when nothing else reads it. Metadata operands do not count:
	// mustnotalias emits no code, so nothing reads a register through it.
	// Only instructions can be fused producers, so only they are counted.
	// The alloca analysis serves register slots, which only allocas of at
	// most 8 bytes get, and the checks, which read its flags only for an
	// alloca root; a function with neither skips it.
	c.uses = resize(c.uses, f.NumIDs())
	clear(c.uses)
	analyze := !c.plain && (small > 0 || checks > 0 && len(c.allocas) > 0)
	if analyze {
		c.startAllocas(f)
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for k, a := range in.Args {
				x, ok := a.(*ir.Instr)
				if !ok || c.regOf(x) < 0 {
					continue
				}
				if in.Op != ir.OpMustNotAlias {
					c.uses[x.ID]++
				}
				if analyze && (x.Op == ir.OpAlloca || derives(x)) {
					c.classifyUse(in, k, x)
				}
			}
		}
	}
	c.firstHome = next
	if analyze && !c.plainFn {
		next = c.giveHomes(next)
	}
	fc.numRegs = int(next)

	c.blockPC = resize(c.blockPC, f.NumBlockIDs())
	clear(c.blockPC)
	// One allocation backs the step prefix sums and segment ends.
	pcs := make([]int32, 2*maxCode+1)
	c.code, c.pcIR, c.kinds = make([]instr, 0, maxCode), make([]*ir.Instr, 0, maxCode), make([]uint8, 0, maxCode)
	c.steps = pcs[: 0 : maxCode+1]
	c.slots = c.firstHome < int32(fc.numRegs)
	for bi, b := range f.Blocks {
		start := len(c.code)
		c.blockPC[b.ID], c.blockStart = int32(start), start
		// tail is the IR instruction whose result the last pc produces.
		// While the last pc is a chain prefix, head and last are its two
		// halves as compiled on their own.
		var tail *ir.Instr
		var head, last instr
		for _, in := range b.Instrs {
			if in.Op == ir.OpMustNotAlias {
				continue // metadata: emits no machine code
			}
			fc.nonMeta++
			c.kinds = append(c.kinds, costKind(in))
			ins := c.compileInstr(fc, in)
			switch ins.op {
			case opVecLoad, opVecSplat, opVecBin, opVecBinF, opVecBinI,
				opVecCmp, opVecIota, opVecSelect, opVecCall:
				// Vec-producing instructions each own a per-activation lane
				// buffer slot (see callFn); allocation happens once per
				// activation instead of once per execution.
				ins.aux = int32(fc.numVecDsts)
				fc.numVecDsts++
			}
			if n := len(c.code); n > start && c.uses[tail.ID] == 1 && sameLine(c.pcIR[n-1], in) {
				if fused, ok := tryFuse(&c.code[n-1], &ins, argIndex(in, tail)); ok {
					if isPrefix(fused.op) {
						head, last = c.code[n-1], ins
					}
					c.code[n-1] = fused
					tail = in
					continue
				}
			}
			c.splitPrefix(head, last, tail)
			c.emit(ins, in, len(c.kinds)-1)
			tail = in
		}
		c.splitPrefix(head, last, tail)
		if c.slots {
			c.seal()
		}
		// A block whose last instruction is not a terminator falls
		// through at runtime under the interpreter; reproduce that as a
		// trap so the error (if ever reached) is identical.
		if n := len(c.code); n == start || !isTerminator(c.code[n-1].op) {
			c.push(instr{op: opFellThrough, cold: fc.addCold(coldOp{name: b.Name})}, nil, len(c.kinds))
		}
		if bi+1 < len(f.Blocks) {
			c.fallThrough(start, f.Blocks[bi+1])
		}
	}
	// Patch branch targets, compiled as block IDs, now that every block
	// has a pc.
	code, pcIR := c.code, c.pcIR
	for i := range code {
		switch in := &code[i]; in.op {
		case opBr, opCondBr, opCmpBr, opLoadCmpBr, opLoadCmpBrSlot:
			in.target, in.elseT = c.pcAt(in.target), c.pcAt(in.elseT)
		}
	}
	if checks > 0 {
		c.linkChecks(code, pcIR)
	}
	fc.code, fc.pcIR = code, pcIR

	// The step prefix sums' last entry, and the segment ends (walked
	// backwards: a terminator or call closes the segment that the pcs
	// before it belong to).
	fc.steps, fc.kinds = append(c.steps, int32(len(c.kinds))), c.kinds
	fc.segEnd = pcs[len(fc.steps) : len(fc.steps)+len(code)]
	end := int32(len(code))
	for pc := len(code) - 1; pc >= 0; pc-- {
		if op := code[pc].op; isTerminator(op) || op == opCallFn || op == opCallIndirect {
			end = int32(pc + 1)
		}
		fc.segEnd[pc] = end
	}
}

// emit seals the last pc and appends the pc ins, whose first IR
// instruction is in and whose first step is step.
func (c *compiler) emit(ins instr, in *ir.Instr, step int) {
	if c.slots {
		c.seal()
	}
	c.push(ins, in, step)
}

// push appends the pc ins, whose first IR instruction is in (nil for
// none) and whose first step is step.
func (c *compiler) push(ins instr, in *ir.Instr, step int) {
	c.code, c.pcIR, c.steps = append(c.code, ins), append(c.pcIR, in), append(c.steps, int32(step))
}

// splitPrefix puts back the two halves, head and last (compiled from
// the IR instruction lastIR), of a chain prefix that ends the code
// because no instruction extended it. The last half would fuse with
// nothing after the split either: convert starts no chain, and cmp only
// cmp_br, whose condbr would have extended load_cmp.
func (c *compiler) splitPrefix(head, last instr, lastIR *ir.Instr) {
	if n := len(c.code); n > 0 && isPrefix(c.code[n-1].op) {
		c.code[n-1] = head
		c.emit(last, lastIR, int(c.steps[n-1])+1)
	}
}

// addCold appends a cold payload and returns its index.
func (fc *fnCode) addCold(p coldOp) int32 {
	fc.cold = append(fc.cold, p)
	return int32(len(fc.cold) - 1)
}

// blockRef encodes a branch target for compileInstr: the block's ID, or
// -1 for a block outside the function being compiled.
func (c *compiler) blockRef(b *ir.Block) int32 {
	if b == nil || b.Fn != c.fn || uint(b.ID) >= uint(len(c.blockPC)) {
		return -1
	}
	return int32(b.ID)
}

// pcAt resolves a blockRef to the block's first pc, 0 for -1.
func (c *compiler) pcAt(ref int32) int32 {
	if ref < 0 {
		return 0
	}
	return c.blockPC[ref]
}

// sameLine reports whether two instructions lower from one source line,
// the condition for fusing them: a fused pc's profile samples carry its
// first instruction's line.
func sameLine(x, y *ir.Instr) bool {
	return x.Span.Start.Line == y.Span.Start.Line && x.Span.Start.File == y.Span.Start.File
}

// argIndex returns the operand index at which in reads v, -1 if none.
func argIndex(in *ir.Instr, v *ir.Instr) int {
	for i, a := range in.Args {
		if a == ir.Value(v) {
			return i
		}
	}
	return -1
}

func isTerminator(op opcode) bool {
	switch op {
	case opBr, opCondBr, opCmpBr, opLoadCmpBr, opLoadCmpBrSlot, opRet, opRetVoid, opFellThrough:
		return true
	}
	return false
}

// isPrefix reports whether op is a chain prefix, which is never emitted.
func isPrefix(op opcode) bool { return op == opLoadConv || op == opLoadCmp }

// stepsOf is the number of interpreter steps one dispatch of op stands
// for (see opTable).
func stepsOf(op opcode) int32 { return int32(opTable[op].steps) }

// tryFuse extends the previous pc, prev, with ins when prev's result
// feeds ins as its sole consumer at operand index k. It returns the
// fused instruction and true, or false when the chain doesn't fuse.
// Matching is greedy: a pc fuses with what follows it, and a fused pc
// may grow by one more instruction up to maxChain. A chain prefix
// (isPrefix) has no handler; compileFunc splits it again when the next
// instruction does not extend it. The cost kinds need no merging: a
// pc's are those of the consecutive instructions it executes.
//
// Field use, by op (producer halves first):
//   - cmp_br: cmp a, b, pred, unsigned; target, elseT.
//   - gep_load, gep_store, gep_vec_load, gep_vec_store: gep a, b, scale,
//     off; load cls, unsigned, dst; store value c; vector cls, width,
//     aux, dst or value c.
//   - load_conv_gep: load a, cls, unsigned; convert cls2, unsigned2;
//     gep's other operand b at pos, scale, off, dst.
//   - load_conv_gep_load, load_conv_gep_store: load_conv_gep's fields
//     but dst; load cls3, unsigned3, dst; store value c.
//   - iadd_store: add a, b, cls, unsigned; the store's address c.
//   - fmul_fadd: mul a, b; add's other operand c at pos, dst.
//   - select_conv: select a, b, c; convert cls, unsigned, dst.
//   - load_cmp_br: load a, cls, unsigned; cmp's other operand b at pos,
//     pred, unsigned2; target, elseT.
func tryFuse(prev, ins *instr, k int) (instr, bool) {
	if k < 0 || stepsOf(prev.op) >= maxChain {
		return instr{}, false
	}
	var f instr
	switch {
	case prev.op == opCmp && ins.op == opCondBr:
		f.op, f.a, f.b, f.pred, f.unsigned = opCmpBr, prev.a, prev.b, prev.pred, prev.unsigned
		f.target, f.elseT = ins.target, ins.elseT
	case prev.op == opGEP && k == 0 && (ins.op == opLoad || ins.op == opStore ||
		ins.op == opVecLoad || ins.op == opVecStore):
		f.a, f.b, f.scale, f.off = prev.a, prev.b, prev.scale, prev.off
		f.cls, f.unsigned, f.width, f.aux = ins.cls, ins.unsigned, ins.width, ins.aux
		switch ins.op {
		case opLoad:
			f.op, f.dst = opGEPLoad, ins.dst
		case opVecLoad:
			f.op, f.dst = opGEPVecLoad, ins.dst
		case opStore:
			f.op, f.c = opGEPStore, ins.b
		default:
			f.op, f.c = opGEPVecStore, ins.c
		}
	case prev.op == opLoad && ins.op == opConvert:
		f.op, f.a, f.cls, f.unsigned = opLoadConv, prev.a, prev.cls, prev.unsigned
		f.cls2, f.unsigned2 = ins.cls, ins.unsigned
	case prev.op == opLoadConv && ins.op == opGEP && k <= 1:
		f = *prev
		f.op, f.b, f.pos, f.scale, f.off, f.dst = opLoadConvGEP, other(ins, k), uint8(k), ins.scale, ins.off, ins.dst
	case prev.op == opLoadConvGEP && k == 0 && ins.op == opLoad:
		f = *prev
		f.op, f.cls3, f.unsigned3, f.dst = opLoadConvGEPLoad, ins.cls, ins.unsigned, ins.dst
	case prev.op == opLoadConvGEP && k == 0 && ins.op == opStore:
		f = *prev
		f.op, f.c, f.dst = opLoadConvGEPStore, ins.b, 0
	case prev.op == opIAdd && ins.op == opStore && k == 1:
		f.op, f.a, f.b, f.cls, f.unsigned, f.c = opIAddStore, prev.a, prev.b, prev.cls, prev.unsigned, ins.a
	case prev.op == opFMul && ins.op == opFAdd && k <= 1:
		f.op, f.a, f.b, f.c, f.pos, f.dst = opFMulFAdd, prev.a, prev.b, other(ins, k), uint8(k), ins.dst
	case prev.op == opSelect && ins.op == opConvert:
		f.op, f.a, f.b, f.c, f.cls, f.unsigned, f.dst = opSelectConv, prev.a, prev.b, prev.c, ins.cls, ins.unsigned, ins.dst
	case prev.op == opLoad && ins.op == opCmp && k <= 1:
		f.op, f.a, f.cls, f.unsigned = opLoadCmp, prev.a, prev.cls, prev.unsigned
		f.b, f.pos, f.pred, f.unsigned2 = other(ins, k), uint8(k), ins.pred, ins.unsigned
	case prev.op == opLoadCmp && ins.op == opCondBr:
		f = *prev
		f.op, f.target, f.elseT = opLoadCmpBr, ins.target, ins.elseT
	default:
		return instr{}, false
	}
	return f, true
}

// other returns the operand of a two-operand instruction that is not
// at index k.
func other(ins *instr, k int) int32 {
	if k == 0 {
		return ins.b
	}
	return ins.a
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
		return instr{op: opAlloca, dst: dst,
			aux: int32(idx), scale: int64(in.AllocSz)}

	case ir.OpLoad:
		return instr{op: opLoad, dst: dst, a: c.addr(in.Args[0]),
			cls: uint8(in.Cls), unsigned: in.Unsigned}

	case ir.OpStore:
		return instr{op: opStore, a: c.addr(in.Args[0]), b: arg(1)}

	case ir.OpGEP:
		return instr{op: opGEP, dst: dst,
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
		return instr{op: op, dst: dst, a: arg(0), b: arg(1),
			irOp: uint8(in.Op), cls: uint8(in.Cls), unsigned: in.Unsigned}

	case ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr:
		if in.Cls.IsFloat() {
			// Always a hard error at runtime; the generic handler
			// reproduces ScalarBin's message.
			return instr{op: opBin, dst: dst, a: arg(0), b: arg(1),
				irOp: uint8(in.Op), cls: uint8(in.Cls), unsigned: in.Unsigned}
		}
		return instr{op: opIBits, dst: dst, a: arg(0), b: arg(1),
			irOp: uint8(in.Op), cls: uint8(in.Cls), unsigned: in.Unsigned}

	case ir.OpDiv, ir.OpRem:
		return instr{op: opDivRem, dst: dst, a: arg(0), b: arg(1),
			irOp: uint8(in.Op), cls: uint8(in.Cls), unsigned: in.Unsigned}

	case ir.OpNeg:
		return instr{op: opNeg, dst: dst, a: arg(0),
			cls: uint8(in.Cls), unsigned: in.Unsigned}

	case ir.OpNot:
		return instr{op: opNot, dst: dst, a: arg(0),
			cls: uint8(in.Cls), unsigned: in.Unsigned}

	case ir.OpCmp:
		return instr{op: opCmp, dst: dst, a: arg(0), b: arg(1),
			pred: uint8(in.Pred), unsigned: in.Unsigned}

	case ir.OpSelect:
		return instr{op: opSelect, dst: dst,
			a: arg(0), b: arg(1), c: arg(2)}

	case ir.OpConvert:
		return instr{op: opConvert, dst: dst, a: arg(0),
			cls: uint8(in.Cls), unsigned: in.Unsigned}

	case ir.OpCall:
		if in.Callee == "" {
			// Indirect: first arg is the function pseudo-address,
			// resolved through the shared table at runtime.
			return instr{op: opCallIndirect, dst: dst,
				a: arg(0), cold: fc.addCold(coldOp{xargs: args(1)}), cls: uint8(in.Cls)}
		}
		// The interpreter consults the builtin table before the module,
		// so the vm resolves in the same order — just once, at compile
		// time (the module cannot change afterwards).
		if isBuiltin(in.Callee) {
			return instr{op: opCallBuiltin, dst: dst,
				cold: fc.addCold(coldOp{name: in.Callee, xargs: args(0)}), cls: uint8(in.Cls)}
		}
		if fn, ok := c.p.byName[in.Callee]; ok {
			return instr{op: opCallFn, dst: dst,
				cold: fc.addCold(coldOp{fn: fn, name: in.Callee, xargs: args(0)}), cls: uint8(in.Cls)}
		}
		return instr{op: opCallUndefined, cold: fc.addCold(coldOp{name: in.Callee})}

	case ir.OpBr:
		return instr{op: opBr, target: c.blockRef(in.Target)}

	case ir.OpCondBr:
		return instr{op: opCondBr, a: arg(0),
			target: c.blockRef(in.Then), elseT: c.blockRef(in.Else)}

	case ir.OpRet:
		if len(in.Args) > 0 {
			return instr{op: opRet, a: arg(0)}
		}
		return instr{op: opRetVoid}

	case ir.OpUBCheck:
		return instr{op: opUBCheck, a: arg(0), b: arg(1), off: int64(in.Meta)}

	case ir.OpMemset:
		return instr{op: opMemset,
			a: arg(0), b: arg(1), c: arg(2), scale: strideOr8(in.Scale)}

	case ir.OpMemcpy:
		return instr{op: opMemcpy,
			a: arg(0), b: arg(1), c: arg(2), scale: strideOr8(in.Scale)}

	case ir.OpVecLoad:
		return instr{op: opVecLoad, dst: dst, a: arg(0),
			cls: uint8(in.Cls), width: int32(in.Width)}

	case ir.OpVecStore:
		return instr{op: opVecStore, a: arg(0), c: arg(1),
			cls: uint8(in.Cls), width: int32(in.Width)}

	case ir.OpVecSplat:
		return instr{op: opVecSplat, dst: dst, a: arg(0), width: int32(in.Width)}

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
		return instr{op: op, dst: dst, a: arg(0), b: arg(1),
			vecOp: uint8(in.VecOp), pred: uint8(in.Pred), cls: uint8(in.Cls), unsigned: in.Unsigned, width: int32(in.Width)}

	case ir.OpVecReduce:
		op := opVecReduce
		if in.Cls.IsFloat() && in.VecOp == ir.OpAdd {
			op = opVecReduceFAdd
		}
		return instr{op: op, dst: dst, a: arg(0),
			vecOp: uint8(in.VecOp), cls: uint8(in.Cls), unsigned: in.Unsigned, width: int32(in.Width)}

	case ir.OpVecIota:
		return instr{op: opVecIota, dst: dst, cls: uint8(in.Cls), width: int32(in.Width)}

	case ir.OpVecSelect:
		return instr{op: opVecSelect, dst: dst,
			a: arg(0), b: arg(1), c: arg(2), width: int32(in.Width)}

	case ir.OpVecCall:
		return instr{op: opVecCall, dst: dst,
			cold: fc.addCold(coldOp{name: in.Callee, xargs: args(0)}), width: int32(in.Width)}

	default:
		return instr{op: opUnhandled, scale: int64(in.Op)}
	}
}

// costKind is the cost kind the interpreter charges in: a load or store
// through a direct scalar alloca is a register move, everything else
// has the fixed cost of its op (opCost).
func costKind(in *ir.Instr) uint8 {
	switch {
	case in.Op == ir.OpLoad || in.Op == ir.OpStore:
		switch {
		case ptrIsReg(in.Args[0]):
			return costRegMove
		case in.Op == ir.OpLoad:
			return costMemLoad
		}
		return costMemStore
	case int(in.Op) < len(opCost):
		return opCost[in.Op]
	}
	return costZero
}

// opCost is each IR op's fixed cost kind: costZero where the cost is
// data-dependent (calls, memset/memcpy, veccall) or nil (alloca, ret).
var opCost = [...]uint8{
	ir.OpGEP: costALUHalf, ir.OpConvert: costALUHalf,
	ir.OpAdd: costALU, ir.OpSub: costALU, ir.OpMul: costALU,
	ir.OpAnd: costALU, ir.OpOr: costALU, ir.OpXor: costALU, ir.OpShl: costALU, ir.OpShr: costALU,
	ir.OpNeg: costALU, ir.OpNot: costALU, ir.OpCmp: costALU, ir.OpSelect: costALU,
	ir.OpUBCheck: costALU, ir.OpVecSplat: costALU, ir.OpVecIota: costALU,
	ir.OpDiv: costDiv, ir.OpRem: costDiv,
	ir.OpBr: costBranch, ir.OpCondBr: costBranch,
	ir.OpVecLoad: costVecMem, ir.OpVecStore: costVecMem,
	ir.OpVecBin: costVecOp, ir.OpVecSelect: costVecOp,
	ir.OpVecReduce: costVecOp2,
}

func strideOr8(s int) int64 {
	if s <= 0 {
		return 8
	}
	return int64(s)
}
