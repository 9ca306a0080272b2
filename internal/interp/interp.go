// Package interp executes the backend IR under a calibrated cycle-cost
// model. It is this repository's substitute for the paper's Intel Xeon
// testbed (DESIGN.md §2): optimizations that eliminate memory traffic,
// promote scalars to registers, vectorize loops, or shrink call overhead
// show up as reduced simulated cycles, so speedup *shapes* are
// reproducible even though absolute times are not.
//
// The cost model's central distinction mirrors real register allocation:
// scalar locals held in allocas are register-class (cheap) while accesses
// through computed pointers are memory-class (expensive).
package interp

import (
	"fmt"
	"math"

	"repro/internal/ir"
)

// CostModel assigns cycle costs to IR operations. The defaults are
// loosely calibrated to a modern x86 core (L1-hit latencies, 4-wide SIMD)
// and are swappable; TestCostModelRobust perturbs them to show the
// paper's speedup ordering is stable.
type CostModel struct {
	ALU      float64 // scalar integer/float arithmetic
	RegMove  float64 // access to a register-class alloca slot
	MemLoad  float64 // load through a computed pointer
	MemStore float64 // store through a computed pointer
	Branch   float64 // conditional or unconditional branch
	CallBase float64 // call/return overhead
	// ICachePenalty is added per executed call-free instruction in
	// functions whose size exceeds ICacheThreshold (the perlbench
	// inlining effect, §4.2.2).
	ICachePenalty   float64
	ICacheThreshold int
	// VecOp is the cost of one vector ALU op (4 lanes).
	VecOp float64
	// VecMem is the cost of one vector load/store (4 lanes).
	VecMem float64
	// MemsetPerByte with a MemsetBase covers the libc call.
	MemsetBase    float64
	MemsetPerByte float64
	Div           float64
	BuiltinCall   float64
}

// MilliCosts is a CostModel converted once to integer milli-cycles.
// Both engines accumulate cycles as int64 milli-cycles, so a run's total
// is an exact integer sum whatever the order of the additions: costs
// such as ICachePenalty 1.1 and VecOp 1.3 are not dyadic, and float64
// sums of them would show the grouping in their low bits. Derived costs
// (half an ALU op, a two-step reduce, a vec-call lane) are rounded from
// their own float products, not composed from rounded parts.
type MilliCosts struct {
	ALU, ALUHalf, RegMove, MemLoad, MemStore, Branch, CallBase int64
	ICachePenalty                                              int64
	VecOp, VecOp2, VecMem                                      int64
	MemsetBase, MemsetPerByte, Div, BuiltinCall, VecCallLane   int64
}

// milli rounds a cycle cost to the nearest milli-cycle.
func milli(x float64) int64 { return int64(math.Round(x * 1000)) }

// Milli converts the model to integer milli-cycles.
func (c CostModel) Milli() MilliCosts {
	return MilliCosts{
		ALU:           milli(c.ALU),
		ALUHalf:       milli(c.ALU * 0.5),
		RegMove:       milli(c.RegMove),
		MemLoad:       milli(c.MemLoad),
		MemStore:      milli(c.MemStore),
		Branch:        milli(c.Branch),
		CallBase:      milli(c.CallBase),
		ICachePenalty: milli(c.ICachePenalty),
		VecOp:         milli(c.VecOp),
		VecOp2:        milli(c.VecOp * 2),
		VecMem:        milli(c.VecMem),
		MemsetBase:    milli(c.MemsetBase),
		MemsetPerByte: milli(c.MemsetPerByte),
		Div:           milli(c.Div),
		BuiltinCall:   milli(c.BuiltinCall),
		// Vector math libraries amortize the call across lanes: 0.4 of a
		// scalar call per lane pair.
		VecCallLane: milli(c.BuiltinCall * 0.2),
	}
}

// DefaultCosts is the calibrated default model.
func DefaultCosts() CostModel {
	return CostModel{
		ALU:             1,
		RegMove:         0.25,
		MemLoad:         4,
		MemStore:        4,
		Branch:          1,
		CallBase:        12,
		ICachePenalty:   1.1,
		ICacheThreshold: 220,
		VecOp:           1.3,
		VecMem:          5,
		MemsetBase:      6,
		MemsetPerByte:   0.25,
		Div:             12,
		BuiltinCall:     18,
	}
}

// SanitizerFailure reports a UBCheck assertion that fired: two pointers
// that must not alias were equal at runtime.
type SanitizerFailure struct {
	Fn   string
	Addr int64
	// Meta is the violated predicate's provenance id (indexes the
	// module's Provenance table; 0 when unknown).
	Meta int
}

func (s *SanitizerFailure) Error() string {
	return fmt.Sprintf("ubsan: must-not-alias violated in %s at address %#x", s.Fn, s.Addr)
}

// Val is a runtime value: scalar or small vector.
type Val struct {
	I   int64
	F   float64
	Fl  bool
	Vec []Val
}

func IV(x int64) Val   { return Val{I: x} }
func FV(x float64) Val { return Val{F: x, Fl: true} }

// AsInt converts to int64. Floats go through the canonical saturating
// rule (ir.FloatToInt) so NaN/±Inf/out-of-range conversions are
// deterministic and bit-identical to constant folding, instead of
// inheriting Go's implementation-defined int64(f).
func (v Val) AsInt() int64 {
	if v.Fl {
		return ir.FloatToInt(v.F)
	}
	return v.I
}

func (v Val) AsFloat() float64 {
	if v.Fl {
		return v.F
	}
	return float64(v.I)
}

// cell is one scalar memory cell.
type cell struct {
	I  int64
	F  float64
	Fl bool
}

// Machine executes a module.
type Machine struct {
	mod   *ir.Module
	costs CostModel
	mc    MilliCosts

	mem      map[int64]cell
	globals  map[string]int64
	nextAddr int64

	// cycles is the accumulated simulated cycle count in milli-cycles.
	cycles int64
	// Executed counts retired instructions.
	Executed int64
	// SanFailures collects ubcheck violations (execution continues, like
	// a logging sanitizer).
	SanFailures []*SanitizerFailure

	// ptrClass caches the static register/memory classification of
	// pointer operands.
	ptrClass map[ir.Value]int

	// fnICache caches whether a function pays the icache penalty.
	fnICache map[*ir.Func]bool

	// funcAddrs/funcNames model function pointers: per-machine,
	// deterministically assigned pseudo-addresses in the reserved range
	// at FuncAddrBase (see BuildFuncTable).
	funcAddrs map[string]int64
	funcNames map[int64]string

	MaxSteps int64
	steps    int64

	// Profile enables per-instruction cycle/retire attribution — the
	// tree-walker mirror of the vm's per-pc counters. Set before the
	// first Run. Off costs one bool check per retired instruction.
	Profile   bool
	profCells map[*ir.Instr]*profCell
	profBase  int64
	profLast  *profCell
}

// profCell is one instruction's profile counters (cycles in
// milli-cycles).
type profCell struct {
	cycles  int64
	retired int64
}

// FuncAddrBase is the bottom of the reserved pseudo-address range for
// function pointers. Data addresses grow upward from 0x10000 and alloc
// asserts they never reach this range, so a function pointer can never
// collide with a live allocation (they used to share one address space,
// with function addresses handed out from a process-global map — racy
// under parallel machines and order-dependent across runs).
const FuncAddrBase = int64(1) << 40

// BuildFuncTable deterministically assigns every function a
// pseudo-address in the reserved range: module functions first, in
// definition order, then any extern names referenced by FuncRef, in
// static program order. Both engines build their tables with this one
// function, so a given module maps names to identical addresses under
// either engine.
func BuildFuncTable(mod *ir.Module) (addrs map[string]int64, names map[int64]string) {
	addrs = make(map[string]int64)
	names = make(map[int64]string)
	assign := func(name string) {
		if _, ok := addrs[name]; ok {
			return
		}
		a := FuncAddrBase + int64(len(addrs))*8
		addrs[name] = a
		names[a] = name
	}
	for _, f := range mod.Funcs {
		assign(f.Name)
	}
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for _, a := range in.Args {
					if fr, ok := a.(*ir.FuncRef); ok {
						assign(fr.Name)
					}
				}
			}
		}
	}
	return addrs, names
}

const (
	classUnknown = 0
	classReg     = 1
	classMem     = 2
)

// New prepares a machine for the module: allocates and initializes
// globals.
func New(mod *ir.Module, costs CostModel) *Machine {
	m := &Machine{
		mod:      mod,
		costs:    costs,
		mc:       costs.Milli(),
		mem:      make(map[int64]cell),
		globals:  make(map[string]int64),
		nextAddr: 0x10000,
		ptrClass: make(map[ir.Value]int),
		fnICache: make(map[*ir.Func]bool),
		MaxSteps: 2_000_000_000,
	}
	m.funcAddrs, m.funcNames = BuildFuncTable(mod)
	for _, g := range mod.Globals {
		addr := m.alloc(int64(g.Size))
		m.globals[g.Name] = addr
		m.zeroFill(addr, g.Size, g.ElemClass)
		for off, init := range g.Init {
			if init.Cls.IsFloat() {
				m.mem[addr+int64(off)] = cell{F: init.F, Fl: true}
			} else {
				m.mem[addr+int64(off)] = cell{I: init.I}
			}
		}
	}
	return m
}

func (m *Machine) alloc(size int64) int64 {
	if size <= 0 {
		size = 8
	}
	a := m.nextAddr
	m.nextAddr += size + 32
	if m.nextAddr >= FuncAddrBase {
		panic("interp: data allocation overflowed into the function pseudo-address range")
	}
	// call pops each frame's allocations on return, so [a, nextAddr) may
	// hold a returned frame's cells; drop them so the range reads as zero
	// like a fresh one.
	for k := a; k < m.nextAddr; k++ {
		delete(m.mem, k)
	}
	return a
}

// zeroFill creates zero cells at elemClass-stride offsets.
func (m *Machine) zeroFill(addr int64, size int, cls ir.Class) {
	stride := int64(cls.Size())
	if stride <= 0 {
		stride = 8
	}
	for off := int64(0); off < int64(size); off += stride {
		m.mem[addr+off] = cell{Fl: cls.IsFloat()}
	}
}

// GlobalAddr returns a global's runtime address.
func (m *Machine) GlobalAddr(name string) (int64, bool) {
	a, ok := m.globals[name]
	return a, ok
}

// ReadF64 reads a memory cell as float64. An integer cell is
// reinterpreted by value conversion (it used to silently read as 0.0
// through the stale float half of the cell). This is the pinned
// mixed-class semantics that the vm's typed memory image reproduces.
func (m *Machine) ReadF64(addr int64) float64 {
	c := m.mem[addr]
	if c.Fl {
		return c.F
	}
	return float64(c.I)
}

// ReadI64 reads a memory cell as int64; a float cell converts through
// the canonical saturating rule (ir.FloatToInt).
func (m *Machine) ReadI64(addr int64) int64 {
	c := m.mem[addr]
	if c.Fl {
		return ir.FloatToInt(c.F)
	}
	return c.I
}

// WriteF64 writes a float cell.
func (m *Machine) WriteF64(addr int64, v float64) { m.mem[addr] = cell{F: v, Fl: true} }

// WriteI64 writes an integer cell.
func (m *Machine) WriteI64(addr int64, v int64) { m.mem[addr] = cell{I: v} }

// Release is a no-op: the tree-walker's map memory is not pooled. It
// exists so both engines share the driver's run-leg surface.
func (m *Machine) Release() {}

// Run calls the named function with integer/float arguments.
func (m *Machine) Run(name string, args ...Val) (Val, error) {
	f := m.mod.FindFunc(name)
	if f == nil {
		return Val{}, fmt.Errorf("interp: no function %q", name)
	}
	if m.Profile && m.profCells == nil {
		m.profCells = make(map[*ir.Instr]*profCell)
	}
	v, err := m.call(f, args)
	if m.profCells != nil && m.profLast != nil {
		// Attribute the trailing delta so the profile total equals
		// TotalCycles minus the top-level CallBase (which falls before
		// the first sample) — the same invariant as the vm.
		m.profLast.cycles += m.cycles - m.profBase
		m.profLast = nil
		m.profBase = m.cycles
	}
	return v, err
}

// RunArgs executes name with the given int64 arguments (convenience).
func (m *Machine) RunArgs(name string, args ...int64) (int64, error) {
	vs := make([]Val, len(args))
	for i, a := range args {
		vs[i] = IV(a)
	}
	v, err := m.Run(name, vs...)
	return v.AsInt(), err
}

// classifyPtr statically classifies a pointer operand: direct scalar
// alloca slots are register-class after register allocation; anything
// else is memory.
func (m *Machine) classifyPtr(v ir.Value) int {
	if c, ok := m.ptrClass[v]; ok && c != classUnknown {
		return c
	}
	cls := classMem
	if in, ok := v.(*ir.Instr); ok && in.Op == ir.OpAlloca && in.AllocSz <= 8 {
		cls = classReg
	}
	m.ptrClass[v] = cls
	return cls
}

func (m *Machine) icachePenalized(f *ir.Func) bool {
	if v, ok := m.fnICache[f]; ok {
		return v
	}
	// Metadata intrinsics occupy no code bytes.
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpMustNotAlias {
				n++
			}
		}
	}
	v := n > m.costs.ICacheThreshold && m.costs.ICachePenalty > 0
	m.fnICache[f] = v
	return v
}

// call executes one function activation.
func (m *Machine) call(f *ir.Func, args []Val) (Val, error) {
	m.cycles += m.mc.CallBase
	// Data allocation is stack-disciplined: the activation's allocas are
	// popped on every exit, so the next call reuses their addresses.
	mark := m.nextAddr
	defer func() { m.nextAddr = mark }()
	regs := make(map[ir.Value]Val, 32)
	for i, p := range f.Params {
		if i < len(args) {
			regs[p] = args[i]
		}
	}
	// Allocas are function-entry allocations (like LLVM's entry-block
	// allocas); allocate on first execution of the instruction.
	frameAllocs := make(map[*ir.Instr]int64)

	icache := m.icachePenalized(f)
	blk := f.Entry()
	if blk == nil {
		return Val{}, fmt.Errorf("interp: empty function %s", f.Name)
	}
	for {
		brTo, ret, retV, err := m.execBlock(f, blk, regs, frameAllocs, icache)
		if err != nil {
			return Val{}, err
		}
		if ret {
			return retV, nil
		}
		if brTo == nil {
			return Val{}, fmt.Errorf("interp: block %s fell through in %s", blk.Name, f.Name)
		}
		blk = brTo
	}
}

func (m *Machine) execBlock(f *ir.Func, b *ir.Block, regs map[ir.Value]Val,
	frameAllocs map[*ir.Instr]int64, icache bool) (*ir.Block, bool, Val, error) {

	get := func(v ir.Value) Val {
		switch x := v.(type) {
		case *ir.Const:
			if x.Cls.IsFloat() {
				return FV(x.F)
			}
			return IV(x.I)
		case *ir.Global:
			return IV(m.globals[x.Name])
		case *ir.FuncRef:
			return IV(m.funcAddr(x.Name))
		default:
			return regs[v]
		}
	}

	for _, in := range b.Instrs {
		if in.Op == ir.OpMustNotAlias {
			continue // metadata: emits no machine code
		}
		m.steps++
		if m.steps > m.MaxSteps {
			return nil, false, Val{}, fmt.Errorf("interp: step budget exceeded")
		}
		m.Executed++
		if m.Profile {
			// Delta sampling at the same point as the vm dispatch loop:
			// everything added since the previous retired instruction
			// (its op cost, penalties, a callee's CallBase) belongs to it.
			if m.profLast != nil {
				m.profLast.cycles += m.cycles - m.profBase
			}
			m.profBase = m.cycles
			pcell := m.profCells[in]
			if pcell == nil {
				pcell = &profCell{}
				m.profCells[in] = pcell
			}
			pcell.retired++
			m.profLast = pcell
		}
		if icache {
			m.cycles += m.mc.ICachePenalty
		}
		switch in.Op {
		case ir.OpAlloca:
			a, ok := frameAllocs[in]
			if !ok {
				a = m.alloc(int64(in.AllocSz))
				frameAllocs[in] = a
				// Zero-fill scalar slots; array allocas get cells lazily.
				if in.AllocSz <= 8 {
					m.mem[a] = cell{}
				}
			}
			regs[in] = IV(a)

		case ir.OpLoad:
			addr := get(in.Args[0]).AsInt()
			c, ok := m.mem[addr]
			if !ok {
				c = cell{Fl: in.Cls.IsFloat()}
				m.mem[addr] = c
			}
			if m.classifyPtr(in.Args[0]) == classReg {
				m.cycles += m.mc.RegMove
			} else {
				m.cycles += m.mc.MemLoad
			}
			if in.Cls.IsFloat() {
				if c.Fl {
					regs[in] = FV(c.F)
				} else {
					regs[in] = FV(float64(c.I))
				}
			} else {
				if c.Fl {
					// Integer load of a float cell: value conversion
					// through the canonical saturating rule, then
					// truncation to the load's class.
					regs[in] = IV(truncFor(in.Cls, ir.FloatToInt(c.F), in.Unsigned))
				} else {
					regs[in] = IV(truncFor(in.Cls, c.I, in.Unsigned))
				}
			}

		case ir.OpStore:
			addr := get(in.Args[0]).AsInt()
			v := get(in.Args[1])
			if m.classifyPtr(in.Args[0]) == classReg {
				m.cycles += m.mc.RegMove
			} else {
				m.cycles += m.mc.MemStore
			}
			if v.Fl {
				m.mem[addr] = cell{F: v.F, Fl: true}
			} else {
				m.mem[addr] = cell{I: v.I}
			}

		case ir.OpGEP:
			base := get(in.Args[0]).AsInt()
			idx := get(in.Args[1]).AsInt()
			regs[in] = IV(base + idx*int64(in.Scale) + int64(in.Off))
			m.cycles += m.mc.ALUHalf // folded into addressing modes

		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr:
			a, c := get(in.Args[0]), get(in.Args[1])
			m.cycles += m.mc.ALU
			v, err := ScalarBin(in.Op, in.Cls, a, c, in.Unsigned)
			if err != nil {
				return nil, false, Val{}, fmt.Errorf("interp: %v in %s", err, f.Name)
			}
			regs[in] = v

		case ir.OpDiv, ir.OpRem:
			a, c := get(in.Args[0]), get(in.Args[1])
			m.cycles += m.mc.Div
			if !a.Fl && !c.Fl && c.I == 0 {
				return nil, false, Val{}, fmt.Errorf("interp: division by zero in %s", f.Name)
			}
			v, err := ScalarBin(in.Op, in.Cls, a, c, in.Unsigned)
			if err != nil {
				return nil, false, Val{}, fmt.Errorf("interp: %v in %s", err, f.Name)
			}
			regs[in] = v

		case ir.OpNeg:
			a := get(in.Args[0])
			m.cycles += m.mc.ALU
			if a.Fl {
				regs[in] = FV(-a.F)
			} else {
				// Truncate to the class width so negation overflow wraps
				// (matching constant folding and the csem wrap choice).
				regs[in] = IV(truncFor(in.Cls, -a.I, in.Unsigned))
			}

		case ir.OpNot:
			a := get(in.Args[0])
			m.cycles += m.mc.ALU
			regs[in] = IV(truncFor(in.Cls, ^a.AsInt(), in.Unsigned))

		case ir.OpCmp:
			a, c := get(in.Args[0]), get(in.Args[1])
			m.cycles += m.mc.ALU
			regs[in] = IV(boolToInt(CompareVals(in.Pred, a, c, in.Unsigned)))

		case ir.OpSelect:
			m.cycles += m.mc.ALU
			if get(in.Args[0]).AsInt() != 0 {
				regs[in] = get(in.Args[1])
			} else {
				regs[in] = get(in.Args[2])
			}

		case ir.OpConvert:
			a := get(in.Args[0])
			m.cycles += m.mc.ALUHalf
			regs[in] = ConvertVal(a, in.Cls, in.Unsigned)

		case ir.OpCall:
			v, err := m.execCall(f, in, get)
			if err != nil {
				return nil, false, Val{}, err
			}
			if in.Cls != ir.Void {
				regs[in] = v
			}

		case ir.OpBr:
			m.cycles += m.mc.Branch
			return in.Target, false, Val{}, nil

		case ir.OpCondBr:
			m.cycles += m.mc.Branch
			if get(in.Args[0]).AsInt() != 0 {
				return in.Then, false, Val{}, nil
			}
			return in.Else, false, Val{}, nil

		case ir.OpRet:
			if len(in.Args) > 0 {
				return nil, true, get(in.Args[0]), nil
			}
			return nil, true, Val{}, nil

		case ir.OpMustNotAlias:
			// Metadata only: free at runtime.

		case ir.OpUBCheck:
			p1 := get(in.Args[0]).AsInt()
			p2 := get(in.Args[1]).AsInt()
			m.cycles += m.mc.ALU // one comparison
			if p1 == p2 {
				m.SanFailures = append(m.SanFailures, &SanitizerFailure{Fn: f.Name, Addr: p1, Meta: in.Meta})
			}

		case ir.OpMemset:
			ptr := get(in.Args[0]).AsInt()
			v := get(in.Args[1])
			length := get(in.Args[2]).AsInt()
			stride := int64(in.Scale)
			if stride <= 0 {
				stride = 8
			}
			for off := int64(0); off < length; off += stride {
				if v.Fl {
					m.mem[ptr+off] = cell{F: v.F, Fl: true}
				} else {
					m.mem[ptr+off] = cell{I: v.I}
				}
			}
			m.cycles += m.mc.MemsetBase + m.mc.MemsetPerByte*length

		case ir.OpMemcpy:
			dst := get(in.Args[0]).AsInt()
			src := get(in.Args[1]).AsInt()
			length := get(in.Args[2]).AsInt()
			stride := int64(in.Scale)
			if stride <= 0 {
				stride = 8
			}
			for off := int64(0); off < length; off += stride {
				m.mem[dst+off] = m.mem[src+off]
			}
			m.cycles += m.mc.MemsetBase + m.mc.MemsetPerByte*length

		case ir.OpVecLoad:
			base := get(in.Args[0]).AsInt()
			lanes := make([]Val, in.Width)
			stride := int64(in.Cls.Size())
			for l := 0; l < in.Width; l++ {
				c := m.mem[base+int64(l)*stride]
				if in.Cls.IsFloat() {
					if c.Fl {
						lanes[l] = FV(c.F)
					} else {
						lanes[l] = FV(float64(c.I))
					}
				} else {
					lanes[l] = IV(c.I)
				}
			}
			m.cycles += m.mc.VecMem
			regs[in] = Val{Vec: lanes}

		case ir.OpVecStore:
			base := get(in.Args[0]).AsInt()
			v := get(in.Args[1])
			stride := int64(in.Cls.Size())
			for l := 0; l < in.Width && l < len(v.Vec); l++ {
				lane := v.Vec[l]
				if lane.Fl {
					m.mem[base+int64(l)*stride] = cell{F: lane.F, Fl: true}
				} else {
					m.mem[base+int64(l)*stride] = cell{I: lane.I}
				}
			}
			m.cycles += m.mc.VecMem

		case ir.OpVecSplat:
			s := get(in.Args[0])
			lanes := make([]Val, in.Width)
			for l := range lanes {
				lanes[l] = s
			}
			m.cycles += m.mc.ALU
			regs[in] = Val{Vec: lanes}

		case ir.OpVecBin:
			a, c := get(in.Args[0]), get(in.Args[1])
			lanes := make([]Val, in.Width)
			for l := 0; l < in.Width; l++ {
				la, lc := Lane(a, l), Lane(c, l)
				if in.VecOp == ir.OpCmp {
					lanes[l] = IV(boolToInt(CompareVals(in.Pred, la, lc, in.Unsigned)))
				} else {
					v, err := ScalarBin(in.VecOp, in.Cls, la, lc, in.Unsigned)
					if err != nil {
						return nil, false, Val{}, fmt.Errorf("interp: %v in %s", err, f.Name)
					}
					lanes[l] = v
				}
			}
			m.cycles += m.mc.VecOp
			regs[in] = Val{Vec: lanes}

		case ir.OpVecReduce:
			a := get(in.Args[0])
			acc := Lane(a, 0)
			for l := 1; l < in.Width; l++ {
				v, err := ScalarBin(in.VecOp, in.Cls, acc, Lane(a, l), in.Unsigned)
				if err != nil {
					return nil, false, Val{}, fmt.Errorf("interp: %v in %s", err, f.Name)
				}
				acc = v
			}
			m.cycles += m.mc.VecOp2
			regs[in] = acc

		case ir.OpVecIota:
			lanes := make([]Val, in.Width)
			for l := range lanes {
				if in.Cls.IsFloat() {
					lanes[l] = FV(float64(l))
				} else {
					lanes[l] = IV(int64(l))
				}
			}
			m.cycles += m.mc.ALU
			regs[in] = Val{Vec: lanes}

		case ir.OpVecSelect:
			mask, x, y := get(in.Args[0]), get(in.Args[1]), get(in.Args[2])
			lanes := make([]Val, in.Width)
			for l := 0; l < in.Width; l++ {
				if Lane(mask, l).AsInt() != 0 {
					lanes[l] = Lane(x, l)
				} else {
					lanes[l] = Lane(y, l)
				}
			}
			m.cycles += m.mc.VecOp
			regs[in] = Val{Vec: lanes}

		case ir.OpVecCall:
			lanes := make([]Val, in.Width)
			argv := make([]Val, len(in.Args))
			for ai, a := range in.Args {
				argv[ai] = get(a)
			}
			for l := 0; l < in.Width; l++ {
				laneArgs := make([]Val, len(argv))
				for ai := range argv {
					laneArgs[ai] = Lane(argv[ai], l)
				}
				v, ok, err := CallBuiltin(in.Callee, laneArgs)
				if !ok || err != nil {
					return nil, false, Val{}, fmt.Errorf("interp: bad vcall %s", in.Callee)
				}
				lanes[l] = v
			}
			m.cycles += m.mc.VecCallLane * int64(in.Width)
			regs[in] = Val{Vec: lanes}

		default:
			return nil, false, Val{}, fmt.Errorf("interp: unhandled op %s", in.Op)
		}
	}
	return nil, false, Val{}, nil
}

func Lane(v Val, l int) Val {
	if v.Vec == nil {
		return v
	}
	if l < len(v.Vec) {
		return v.Vec[l]
	}
	return Val{}
}

func (m *Machine) execCall(f *ir.Func, in *ir.Instr, get func(ir.Value) Val) (Val, error) {
	callee := in.Callee
	args := in.Args
	if callee == "" {
		// Indirect: first arg is the function pseudo-address.
		addr := get(in.Args[0]).AsInt()
		name, ok := m.funcNames[addr]
		if !ok {
			return Val{}, fmt.Errorf("interp: bad indirect call in %s", f.Name)
		}
		callee = name
		args = in.Args[1:]
	}
	vals := make([]Val, len(args))
	for i, a := range args {
		vals[i] = get(a)
	}
	if v, ok, err := CallBuiltin(callee, vals); ok {
		m.cycles += m.mc.BuiltinCall
		return v, err
	}
	cf := m.mod.FindFunc(callee)
	if cf == nil {
		return Val{}, fmt.Errorf("interp: call to undefined %q from %s", callee, f.Name)
	}
	return m.call(cf, vals)
}

// funcAddr returns the pseudo-address for a function name, assigning a
// fresh reserved-range slot for names BuildFuncTable never saw (cannot
// happen for names reachable from the module itself).
func (m *Machine) funcAddr(name string) int64 {
	if a, ok := m.funcAddrs[name]; ok {
		return a
	}
	a := FuncAddrBase + int64(len(m.funcAddrs))*8
	m.funcAddrs[name] = a
	m.funcNames[a] = name
	return a
}

// TotalCycles returns the accumulated simulated cycle count (engine
// interface shared with the vm): the exact milli-cycle total over 1000.
func (m *Machine) TotalCycles() float64 { return float64(m.cycles) / 1000 }

// MilliCycles returns the accumulated simulated cycle count in integer
// milli-cycles, the unit both engines account in.
func (m *Machine) MilliCycles() int64 { return m.cycles }

// SanitizerFailures returns the collected ubcheck violations.
func (m *Machine) SanitizerFailures() []*SanitizerFailure { return m.SanFailures }
