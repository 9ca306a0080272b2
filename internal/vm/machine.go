package vm

import (
	"fmt"
	"math"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/telemetry"
)

// cell is one scalar memory cell, same shape as the interpreter's: the
// Fl flag records which half was last written, and mixed-class access
// reinterprets by value conversion (the pinned semantics from
// interp.ReadF64/ReadI64).
type cell struct {
	I  int64
	F  float64
	Fl bool
}

// Machine executes a compiled Program. Cycle accounting, address
// assignment, and sanitizer behaviour are identical to interp.Machine
// by construction; see the package comment.
type Machine struct {
	p  *Program
	mc interp.MilliCosts

	// costTab resolves cost kinds to milli-cycles against the machine's
	// CostModel. pen is each function's per-step icache penalty (same
	// threshold rule as interp.icachePenalized), 0 when it pays none.
	// segCost[fn][pc] is the milli-cycle prefix sum over the function's
	// code — the fixed cost of each IR instruction a pc executes, and pen
	// per step — matching fnCode.steps, so a segment is charged with two
	// subtractions.
	costTab [256]int64
	pen     []int64
	segCost [][]int64

	// mem is the dense typed memory image covering [memBase, nextAddr).
	// Frame data is allocated stack-fashion: callFn records nextAddr on
	// entry and restores it on exit, so a returned frame's addresses are
	// reused by the next call and the image is sized by the deepest call
	// chain, not by the call count. alloc clears what it hands out, so a
	// reused slot reads as zero like a fresh one. Out-of-image (wild)
	// addresses fall back to a map, preserving the interpreter's
	// anything-goes sparse store semantics.
	mem      []cell
	wild     map[int64]cell
	nextAddr int64

	// cycles is the accumulated simulated cycle count in milli-cycles.
	cycles int64
	// Executed counts retired instructions.
	Executed int64
	// SanFailures collects ubcheck violations (execution continues, like
	// a logging sanitizer).
	SanFailures []*interp.SanitizerFailure

	MaxSteps int64
	steps    int64
	// tripFit is set while callFn runs a segment that overruns MaxSteps:
	// the number of steps that fit at the tripping pc, plus one, or -1
	// when the tripping step is the trailing br of the pc before (see
	// tripPoint). It is 0 otherwise, and callFn reads it only when it
	// leaves a segment without a branch.
	tripFit int

	// Profile enables per-pc cycle/retire attribution. Set it before the
	// first Run. When off the dispatch loop pays nothing beyond one nil
	// check per segment; when on, every pc is its own segment and each
	// one charges the cycles accumulated since the previous dispatch to
	// the previously executed pc (delta sampling), so handler-internal
	// additions (memset, builtin calls, callee CallBase) land on the pc
	// that caused them.
	Profile   bool
	profCells []profCell
	profBase  int64
	profLast  int

	// framePool recycles activation frames per function (a stack per
	// fnCode, so recursion just deepens the pool). Released frames have
	// their value registers cleared: a register must read as zero until
	// its defining instruction executes, exactly like the tree-walker's
	// absent map entry, and alloca slot 0 is the unassigned sentinel.
	// The constant slots keep the values the pool filled in.
	framePool [][]*frame
}

// profCell is one pc's profile counters (cycles in milli-cycles).
type profCell struct {
	cycles  int64
	retired int64
}

// frame is the pooled per-activation state: register file (value
// registers, then the function's constants), lazy alloca addresses, lane
// buffers (one slot per vec-producing instruction), and the
// call-argument scratch buffer.
type frame struct {
	regs      []Val
	allocas   []int64
	vecBufs   [][]Val
	argBuf    []Val
	vecArgBuf []Val
}

// gatherInto fills the frame's argument scratch from register-file
// operands. The scratch is consumed before the next gather on this
// frame: a callee copies its params into its own registers on entry, and
// builtins never re-enter the vm. clone unshares vec arguments — needed
// only when the callee is a compiled function whose registers outlive
// this instruction; builtins and vec-calls read lanes immediately and
// never retain the value.
func gatherInto(fr *frame, xargs []int32, clone bool) []Val {
	if cap(fr.argBuf) < len(xargs) {
		fr.argBuf = make([]Val, len(xargs))
	}
	out := fr.argBuf[:len(xargs)]
	for i, s := range xargs {
		if clone {
			out[i] = cloneVec(fr.regs[s])
		} else {
			out[i] = fr.regs[s]
		}
	}
	return out
}

func (m *Machine) acquireFrame(fc *fnCode) *frame {
	if s := m.framePool[fc.idx]; len(s) > 0 {
		fr := s[len(s)-1]
		m.framePool[fc.idx] = s[:len(s)-1]
		return fr
	}
	fr := &frame{regs: make([]Val, fc.numRegs+len(fc.consts))}
	copy(fr.regs[fc.numRegs:], fc.consts)
	if fc.numAllocas > 0 {
		fr.allocas = make([]int64, fc.numAllocas)
	}
	if fc.numVecDsts > 0 {
		fr.vecBufs = make([][]Val, fc.numVecDsts)
	}
	return fr
}

// releaseFrame pools the activation's frame and pops its data
// allocations by resetting the allocator to mark, its value on entry.
func (m *Machine) releaseFrame(fc *fnCode, fr *frame, mark int64) {
	m.nextAddr = mark
	clear(fr.regs[:fc.numRegs])
	clear(fr.allocas)
	clear(fr.argBuf)
	clear(fr.vecArgBuf)
	// Lane buffers are kept as-is: every handler overwrites all lanes
	// before publishing, and no reference to them survives the activation
	// (whole-value copies go through cloneVec).
	m.framePool[fc.idx] = append(m.framePool[fc.idx], fr)
}

// New prepares a machine over a compiled program: builds the cost
// table, materializes the global image, and starts the frame allocator
// where the global layout left off.
func New(p *Program, costs interp.CostModel) *Machine {
	mc := costs.Milli()
	m := &Machine{
		p:        p,
		mc:       mc,
		nextAddr: p.memTop,
		MaxSteps: 2_000_000_000,
	}
	m.costTab = [256]int64{
		costZero:     0,
		costALU:      mc.ALU,
		costALUHalf:  mc.ALUHalf,
		costRegMove:  mc.RegMove,
		costMemLoad:  mc.MemLoad,
		costMemStore: mc.MemStore,
		costBranch:   mc.Branch,
		costDiv:      mc.Div,
		costVecMem:   mc.VecMem,
		costVecOp:    mc.VecOp,
		costVecOp2:   mc.VecOp2,
	}
	m.pen = make([]int64, len(p.fns))
	m.segCost = make([][]int64, len(p.fns))
	m.framePool = make([][]*frame, len(p.fns))
	prefix := make([]int64, p.profCells+len(p.fns))
	for i, fc := range p.fns {
		if fc.nonMeta > costs.ICacheThreshold && costs.ICachePenalty > 0 {
			m.pen[i] = mc.ICachePenalty
		}
		pre := prefix[: len(fc.code)+1 : len(fc.code)+1]
		prefix = prefix[len(pre):]
		for pc := range fc.code {
			c := m.pen[i] * int64(fc.steps[pc+1]-fc.steps[pc])
			for _, k := range fc.kinds[fc.steps[pc]:fc.steps[pc+1]] {
				c += m.costTab[k]
			}
			pre[pc+1] = pre[pc] + c
		}
		m.segCost[i] = pre
	}
	// Slack beyond the global image absorbs typical frame allocations
	// without the grow-and-copy path; addresses in the slack read as zero
	// either way (dense image and wild map agree on unwritten cells). A
	// recycled image from a released Machine is preferred: it is already
	// sized for the program's real allocation footprint, and clearing it
	// is cheaper than allocating (and later marking) a fresh one.
	need := p.memTop - memBase + 2048
	if buf, ok := p.memPool.Get().(*[]cell); ok && int64(cap(*buf)) >= need {
		m.mem = (*buf)[:cap(*buf)]
		clear(m.mem)
	} else {
		m.mem = make([]cell, need)
	}
	for _, ic := range p.globalInit {
		m.mem[ic.addr-memBase] = ic.c
	}
	return m
}

// Release returns the machine's memory image to the program's pool. The
// machine must not be used afterwards; callers that are done extracting
// results (the driver's run legs) call this to recycle the image.
func (m *Machine) Release() {
	if m.mem == nil {
		return
	}
	buf := m.mem
	m.mem = nil
	m.p.memPool.Put(&buf)
}

func (m *Machine) alloc(size int64) int64 {
	if size <= 0 {
		size = 8
	}
	a := m.nextAddr
	m.nextAddr += size + 32
	if m.nextAddr >= interp.FuncAddrBase {
		panic("vm: data allocation overflowed into the function pseudo-address range")
	}
	if need := m.nextAddr - memBase; need > int64(len(m.mem)) {
		grown := make([]cell, need*2)
		copy(grown, m.mem)
		m.mem = grown
	}
	clear(m.mem[a-memBase : m.nextAddr-memBase])
	return a
}

func (m *Machine) cellAt(addr int64) cell {
	if off := addr - memBase; off >= 0 && off < int64(len(m.mem)) {
		return m.mem[off]
	}
	return m.wild[addr]
}

func (m *Machine) setCell(addr int64, c cell) {
	if off := addr - memBase; off >= 0 && off < int64(len(m.mem)) {
		m.mem[off] = c
		return
	}
	if m.wild == nil {
		m.wild = make(map[int64]cell)
	}
	m.wild[addr] = c
}

// GlobalAddr returns a global's runtime address.
func (m *Machine) GlobalAddr(name string) (int64, bool) {
	a, ok := m.p.globals[name]
	return a, ok
}

// ReadF64 reads a memory cell as float64, reinterpreting integer cells
// by value conversion (pinned mixed-class semantics, same as interp).
func (m *Machine) ReadF64(addr int64) float64 {
	c := m.cellAt(addr)
	if c.Fl {
		return c.F
	}
	return float64(c.I)
}

// ReadI64 reads a memory cell as int64; float cells convert through the
// canonical saturating rule.
func (m *Machine) ReadI64(addr int64) int64 {
	c := m.cellAt(addr)
	if c.Fl {
		return ir.FloatToInt(c.F)
	}
	return c.I
}

// WriteF64 writes a float cell.
func (m *Machine) WriteF64(addr int64, v float64) { m.setCell(addr, cell{F: v, Fl: true}) }

// WriteI64 writes an integer cell.
func (m *Machine) WriteI64(addr int64, v int64) { m.setCell(addr, cell{I: v}) }

// Run calls the named function with integer/float arguments.
func (m *Machine) Run(name string, args ...Val) (Val, error) {
	fc, ok := m.p.byName[name]
	if !ok {
		return Val{}, fmt.Errorf("vm: no function %q", name)
	}
	if m.Profile && m.profCells == nil {
		m.profCells = make([]profCell, m.p.profCells)
		m.profLast = -1
	}
	v, err := m.callFn(fc, args)
	if m.profCells != nil {
		// Attribute the trailing delta (the last executed instruction's
		// own costs) so the profile total matches TotalCycles minus the
		// top-level CallBase, which falls before the first sample.
		if m.profLast >= 0 {
			m.profCells[m.profLast].cycles += m.cycles - m.profBase
			m.profLast = -1
		}
		m.profBase = m.cycles
	}
	return v, err
}

// RunArgs executes name with the given int64 arguments (convenience).
func (m *Machine) RunArgs(name string, args ...int64) (int64, error) {
	vs := make([]Val, len(args))
	for i, a := range args {
		vs[i] = interp.IV(a)
	}
	v, err := m.Run(name, vs...)
	return v.AsInt(), err
}

// TotalCycles returns the accumulated simulated cycle count (engine
// interface shared with interp): the exact milli-cycle total over 1000.
func (m *Machine) TotalCycles() float64 { return float64(m.cycles) / 1000 }

// MilliCycles returns the accumulated simulated cycle count in integer
// milli-cycles, the unit both engines account in.
func (m *Machine) MilliCycles() int64 { return m.cycles }

// SanitizerFailures returns the collected ubcheck violations.
func (m *Machine) SanitizerFailures() []*interp.SanitizerFailure { return m.SanFailures }

// Report records execution totals under the same telemetry keys as the
// tree-walker, so dashboards and tests see one engine-agnostic surface.
func (m *Machine) Report(tel *telemetry.Session) {
	if !tel.MetricsEnabled() {
		return
	}
	tel.AddGauge("interp/cycles", m.TotalCycles())
	tel.Count("interp/instrs_executed", m.Executed)
	tel.Count("interp/san_failures", int64(len(m.SanFailures)))
	m.reportOpMix(tel)
}

// fl reads a value as float64 (the inlined Val.AsFloat over a pointer,
// avoiding the 48-byte struct copy on the hot path).
func fl(v *Val) float64 {
	if v.Fl {
		return v.F
	}
	return float64(v.I)
}

// iv reads a value as int64 through the canonical saturating rule (the
// inlined Val.AsInt).
func iv(v *Val) int64 {
	if v.Fl {
		return ir.FloatToInt(v.F)
	}
	return v.I
}

// laneF reads lane l as float64 with interp.Lane's broadcast/zero
// semantics: scalars broadcast, out-of-range lanes read as zero.
func laneF(v *Val, l int) float64 {
	if v.Vec == nil {
		return fl(v)
	}
	if l < len(v.Vec) {
		return fl(&v.Vec[l])
	}
	return 0
}

// zeroVal backs lanePtr's out-of-range reads. Read-only.
var zeroVal Val

// lanePtr is interp.Lane by pointer: scalars broadcast, out-of-range
// lanes read as zero. Callers only read through the result.
func lanePtr(v *Val, l int) *Val {
	if v.Vec == nil {
		return v
	}
	if l < len(v.Vec) {
		return &v.Vec[l]
	}
	return &zeroVal
}

// cloneVec unshares a vector value's lane slice. Lane buffers are owned
// by their defining instruction and rewritten in place when it
// re-executes (see callFn), so any whole-value copy that outlives the
// current instruction — select, return, call arguments, splat — must
// freeze the lanes it saw, exactly as the tree-walker's
// fresh-slice-per-op allocation does implicitly.
func cloneVec(v Val) Val {
	if v.Vec != nil {
		v.Vec = append([]Val(nil), v.Vec...)
	}
	return v
}

// callFn executes one function activation: the bytecode analogue of
// interp.Machine.call + execBlock, with a flat pc loop over pre-resolved
// branch targets.
//
// The loop is split into hot and cold code. Its switch holds the ops
// that make up nearly all dispatches: loads, stores, geps, scalar
// arithmetic, integer bitwise ops, compares, selects, converts,
// branches, returns, the fused chains, the register-slot forms and
// ubcheck runs. Every other op (calls, vector ops, memset/memcpy,
// allocas, div/rem, neg/not, traps) runs in execCold, reached from the
// switch's default. The Go compiler
// allocates registers over the whole switch and spills every value that
// lives across it around each call a case makes, so the loop carries
// only the machine, the function, its frame, registers and code, pc and
// end. A new op goes to execCold unless its share of the dispatch mix
// pays for a hot case, which costs every other handler (DESIGN.md §9).
//
// A pc executes one IR instruction or several: a fused chain, with up
// to two slot loads folded ahead of it and a fall-through br trailing
// it (compiler.seal, fallThrough). A folded load and a trailing br have
// no handler: the pc reads the slot register the load would have read,
// and falls into the next block's code where the br would have jumped.
// Each still counts as a step of the pc, with its own cost kind.
//
// Accounting is charged per segment, not per dispatch. On entering a
// segment (a block, or the pc after a call) the loop adds the segment's
// steps and milli-cycles from the prefix sums to the Machine's steps,
// Executed and cycles in one go and checks the step budget once;
// handlers only compute values and add their data-dependent costs to
// m.cycles. Integer sums do not depend on grouping, so the totals equal
// the interpreter's per-instruction additions exactly. Nothing is kept
// in locals, so nothing is written back or reloaded around a nested
// call: the callee adds to the same fields. The edge cases keep the
// equality:
//   - a segment that would overrun MaxSteps is charged only up to the
//     tripping step, runs up to it, and traps there (tripFit, trip; a
//     pc that trips on a later step pays for the steps before it, and
//     one that trips on its trailing br has run);
//   - a handler error un-charges the rest of its segment (fail);
//   - with profiling on every pc is its own segment, so delta sampling
//     sees each dispatch.
func (m *Machine) callFn(fc *fnCode, args []Val) (Val, error) {
	m.cycles += m.mc.CallBase
	if fc.empty {
		return Val{}, fmt.Errorf("vm: empty function %s", fc.name)
	}
	// Frames (register file, lazy alloca table, lane buffers) are pooled
	// per function; a released frame reads exactly like a fresh one.
	// Releasing also pops the activation's allocas, on every exit path.
	mark := m.nextAddr
	fr := m.acquireFrame(fc)
	defer m.releaseFrame(fc, fr, mark)
	regs := fr.regs
	for i := 0; i < fc.nParams && i < len(args); i++ {
		regs[i] = args[i]
	}
	code := fc.code

	pc, end := 0, 0
seg:
	for {
		// The head stays inline: a call here, even on a path that runs
		// only with profiling or a trip, made the whole loop slower
		// (EXPERIMENTS.md).
		stepPre := fc.steps
		end = int(fc.segEnd[pc])
		if m.profCells != nil {
			end = pc + 1
		}
		if m.steps+int64(stepPre[end]-stepPre[pc]) > m.MaxSteps {
			end, m.tripFit = tripPoint(fc, pc, end, m.MaxSteps-m.steps)
		}
		if m.profCells != nil && (stepPre[end] > stepPre[pc] || m.tripFit > 1) {
			// Delta sampling: everything added since the previous dispatch
			// (its costs, handler-internal additions, a callee's CallBase)
			// belongs to the previously executed pc.
			if m.profLast >= 0 {
				m.profCells[m.profLast].cycles += m.cycles - m.profBase
			}
			m.profBase = m.cycles
			m.profLast = fc.profOff + pc
			m.profCells[m.profLast].retired++
		}
		d := int64(stepPre[end] - stepPre[pc])
		m.steps += d
		m.Executed += d
		costPre := m.segCost[fc.idx]
		m.cycles += costPre[end] - costPre[pc]

		// The unsigned test lets the compiler drop the bounds check on
		// run[pc].
		run := code[:end]
		for ; uint(pc) < uint(len(run)); pc++ {
			in := &run[pc]
			switch in.op {
			case opLoad:
				x := m.cellAt(iv(&regs[in.a]))
				if isFloat(in.cls) {
					regs[in.dst] = Val{F: x.f64(), Fl: true}
				} else {
					regs[in.dst] = Val{I: trunc(in.cls, x.i64(), in.unsigned)}
				}

			case opStore:
				m.setCell(iv(&regs[in.a]), scalar(&regs[in.b]))

			case opStoreSlot:
				// The slot holds what the cell would: the payload the flag
				// selects.
				if v := &regs[in.b]; v.Fl {
					regs[in.a] = Val{F: v.F, Fl: true}
				} else {
					regs[in.a] = Val{I: v.I}
				}

			case opGEP:
				regs[in.dst] = Val{I: iv(&regs[in.a]) + iv(&regs[in.b])*in.scale + in.off}

			case opFAdd:
				regs[in.dst] = Val{F: fl(&regs[in.a]) + fl(&regs[in.b]), Fl: true}

			case opFSub:
				regs[in.dst] = Val{F: fl(&regs[in.a]) - fl(&regs[in.b]), Fl: true}

			case opFMul:
				regs[in.dst] = Val{F: fl(&regs[in.a]) * fl(&regs[in.b]), Fl: true}

			case opIAdd:
				a, b := &regs[in.a], &regs[in.b]
				if a.Fl || b.Fl {
					regs[in.dst] = Val{F: fl(a) + fl(b), Fl: true}
				} else if ir.Class(in.cls) == ir.I64 {
					regs[in.dst] = Val{I: a.I + b.I}
				} else {
					regs[in.dst] = Val{I: trunc(in.cls, a.I+b.I, in.unsigned)}
				}

			case opISub:
				a, b := &regs[in.a], &regs[in.b]
				if a.Fl || b.Fl {
					regs[in.dst] = Val{F: fl(a) - fl(b), Fl: true}
				} else if ir.Class(in.cls) == ir.I64 {
					regs[in.dst] = Val{I: a.I - b.I}
				} else {
					regs[in.dst] = Val{I: trunc(in.cls, a.I-b.I, in.unsigned)}
				}

			case opIMul:
				a, b := &regs[in.a], &regs[in.b]
				if a.Fl || b.Fl {
					regs[in.dst] = Val{F: fl(a) * fl(b), Fl: true}
				} else if ir.Class(in.cls) == ir.I64 {
					regs[in.dst] = Val{I: a.I * b.I}
				} else {
					regs[in.dst] = Val{I: trunc(in.cls, a.I*b.I, in.unsigned)}
				}

			case opIBits:
				// A float-tagged operand is an error, which execCold raises.
				if a, b := &regs[in.a], &regs[in.b]; !a.Fl && !b.Fl {
					regs[in.dst] = Val{I: ir.FoldInt(ir.Op(in.irOp), ir.Class(in.cls), a.I, b.I, in.unsigned)}
				} else if err := m.execCold(fc, fr, in); err != nil {
					return Val{}, m.fail(fc, pc, end, err)
				}

			case opCmp:
				a, b := &regs[in.a], &regs[in.b]
				var r bool
				if a.Fl || b.Fl {
					r = ir.CompareFloat(ir.Pred(in.pred), fl(a), fl(b))
				} else {
					r = ir.CompareInt(ir.Pred(in.pred), a.I, b.I, in.unsigned)
				}
				regs[in.dst] = Val{I: b2i(r)}

			case opSelect:
				if iv(&regs[in.a]) != 0 {
					regs[in.dst] = cloneVec(regs[in.b])
				} else {
					regs[in.dst] = cloneVec(regs[in.c])
				}

			case opConvert, opLoadSlot, opStoreConvSlot:
				// A slot read converts by value exactly as a cell read does,
				// and a converting slot store as every load of its slot.
				v := &regs[in.a]
				if isFloat(in.cls) {
					regs[in.dst] = Val{F: fl(v), Fl: true}
				} else {
					regs[in.dst] = Val{I: trunc(in.cls, iv(v), in.unsigned)}
				}

			case opBr:
				pc = int(in.target)
				continue seg

			case opCondBr:
				if iv(&regs[in.a]) != 0 {
					pc = int(in.target)
				} else {
					pc = int(in.elseT)
				}
				continue seg

			// Fused chains (tryFuse lists their fields). A leading half's
			// result stays in a local cell, pointer-free so it lives in
			// registers; its dead register is never written. The class
			// stages (load, convert) are written out: as a function one
			// would not inline (cost 126 against the inliner's budget of
			// 80, go build -gcflags=-m=2).
			case opCmpBr:
				a, b := &regs[in.a], &regs[in.b]
				var r bool
				if a.Fl || b.Fl {
					r = ir.CompareFloat(ir.Pred(in.pred), fl(a), fl(b))
				} else {
					r = ir.CompareInt(ir.Pred(in.pred), a.I, b.I, in.unsigned)
				}
				if r {
					pc = int(in.target)
				} else {
					pc = int(in.elseT)
				}
				continue seg

			case opGEPLoad:
				x := m.cellAt(iv(&regs[in.a]) + iv(&regs[in.b])*in.scale + in.off)
				if isFloat(in.cls) {
					regs[in.dst] = Val{F: x.f64(), Fl: true}
				} else {
					regs[in.dst] = Val{I: trunc(in.cls, x.i64(), in.unsigned)}
				}

			case opGEPStore:
				m.setCell(iv(&regs[in.a])+iv(&regs[in.b])*in.scale+in.off, scalar(&regs[in.c]))

			case opLoadConvGEP:
				x := m.cellAt(iv(&regs[in.a]))
				if isFloat(in.cls) {
					x = cell{F: x.f64(), Fl: true}
				} else {
					x = cell{I: trunc(in.cls, x.i64(), in.unsigned)}
				}
				if isFloat(in.cls2) {
					x = cell{F: x.f64(), Fl: true}
				} else {
					x = cell{I: trunc(in.cls2, x.i64(), in.unsigned2)}
				}
				regs[in.dst] = Val{I: gepAt(in, x.i64(), iv(&regs[in.b]))}

			// The slot forms (decide.go) read or write a register where
			// their memory forms go through cellAt or setCell. Each is a
			// case of its own: sharing the memory form's case and testing
			// in.op cost every handler about 2% of kernels' traced
			// vm.run_ns_per_kcycle (EXPERIMENTS.md).
			case opLoadConvGEPSlot:
				x := scalar(&regs[in.a])
				if isFloat(in.cls) {
					x = cell{F: x.f64(), Fl: true}
				} else {
					x = cell{I: trunc(in.cls, x.i64(), in.unsigned)}
				}
				if isFloat(in.cls2) {
					x = cell{F: x.f64(), Fl: true}
				} else {
					x = cell{I: trunc(in.cls2, x.i64(), in.unsigned2)}
				}
				regs[in.dst] = Val{I: gepAt(in, x.i64(), iv(&regs[in.b]))}

			case opLoadConvGEPLoad, opLoadConvGEPLoadSlot, opLoadConvGEPStore, opLoadConvGEPStoreSlot:
				// The four-step chains share one case: four cases of their
				// own grew callFn's frame and code by a fifth and ran no
				// faster (EXPERIMENTS.md).
				var x cell
				if in.op == opLoadConvGEPLoad || in.op == opLoadConvGEPStore {
					x = m.cellAt(iv(&regs[in.a]))
				} else {
					x = scalar(&regs[in.a])
				}
				if isFloat(in.cls) {
					x = cell{F: x.f64(), Fl: true}
				} else {
					x = cell{I: trunc(in.cls, x.i64(), in.unsigned)}
				}
				if isFloat(in.cls2) {
					x = cell{F: x.f64(), Fl: true}
				} else {
					x = cell{I: trunc(in.cls2, x.i64(), in.unsigned2)}
				}
				p := gepAt(in, x.i64(), iv(&regs[in.b]))
				if in.op == opLoadConvGEPStore || in.op == opLoadConvGEPStoreSlot {
					m.setCell(p, scalar(&regs[in.c]))
				} else if x = m.cellAt(p); isFloat(in.cls3) {
					regs[in.dst] = Val{F: x.f64(), Fl: true}
				} else {
					regs[in.dst] = Val{I: trunc(in.cls3, x.i64(), in.unsigned3)}
				}

			case opIAddStore:
				a, b := &regs[in.a], &regs[in.b]
				var x cell
				if a.Fl || b.Fl {
					x = cell{F: fl(a) + fl(b), Fl: true}
				} else {
					x = cell{I: trunc(in.cls, a.I+b.I, in.unsigned)}
				}
				m.setCell(iv(&regs[in.c]), x)

			case opIAddStoreSlot:
				a, b := &regs[in.a], &regs[in.b]
				var x cell
				if a.Fl || b.Fl {
					x = cell{F: fl(a) + fl(b), Fl: true}
				} else {
					x = cell{I: trunc(in.cls, a.I+b.I, in.unsigned)}
				}
				regs[in.c] = Val{I: x.I, F: x.F, Fl: x.Fl}

			case opFMulFAdd:
				// The conversion rounds the product, as fmul's register
				// write does: without it the Go compiler may fuse x*y+o
				// into one FMA (arm64, GOAMD64=v3), rounding once.
				x, o := float64(fl(&regs[in.a])*fl(&regs[in.b])), fl(&regs[in.c])
				if in.pos == 0 {
					regs[in.dst] = Val{F: x + o, Fl: true}
				} else {
					regs[in.dst] = Val{F: o + x, Fl: true}
				}

			case opSelectConv:
				v := &regs[in.c]
				if iv(&regs[in.a]) != 0 {
					v = &regs[in.b]
				}
				if isFloat(in.cls) {
					regs[in.dst] = Val{F: fl(v), Fl: true}
				} else {
					regs[in.dst] = Val{I: trunc(in.cls, iv(v), in.unsigned)}
				}

			case opLoadCmpBr:
				x := m.cellAt(iv(&regs[in.a]))
				if isFloat(in.cls) {
					x = cell{F: x.f64(), Fl: true}
				} else {
					x = cell{I: trunc(in.cls, x.i64(), in.unsigned)}
				}
				o := scalar(&regs[in.b])
				if in.pos != 0 {
					x, o = o, x
				}
				var r bool
				if x.Fl || o.Fl {
					r = ir.CompareFloat(ir.Pred(in.pred), x.f64(), o.f64())
				} else {
					r = ir.CompareInt(ir.Pred(in.pred), x.I, o.I, in.unsigned2)
				}
				if r {
					pc = int(in.target)
				} else {
					pc = int(in.elseT)
				}
				continue seg

			case opLoadCmpBrSlot:
				x := scalar(&regs[in.a])
				if isFloat(in.cls) {
					x = cell{F: x.f64(), Fl: true}
				} else {
					x = cell{I: trunc(in.cls, x.i64(), in.unsigned)}
				}
				o := scalar(&regs[in.b])
				if in.pos != 0 {
					x, o = o, x
				}
				var r bool
				if x.Fl || o.Fl {
					r = ir.CompareFloat(ir.Pred(in.pred), x.f64(), o.f64())
				} else {
					r = ir.CompareInt(ir.Pred(in.pred), x.I, o.I, in.unsigned2)
				}
				if r {
					pc = int(in.target)
				} else {
					pc = int(in.elseT)
				}
				continue seg

			case opRet:
				return cloneVec(regs[in.a]), nil

			case opRetVoid:
				return Val{}, nil

			case opUBCheck:
				// target is the first check left to evaluate (linkChecks);
				// a run decided at compile time only moves pc to its last
				// check, or to where profiling or a budget trip cut it.
				if t := int(in.target); t < end {
					pc = m.ubcheckRun(fc, regs, t, end)
				} else {
					pc = min(int(in.elseT), end-1)
				}

			default:
				if err := m.execCold(fc, fr, in); err != nil {
					return Val{}, m.fail(fc, pc, end, err)
				}
			}
		}
		if m.tripFit != 0 {
			return Val{}, m.trip(fc, pc)
		}
	}
}

// trip traps at pc, where the segment head cut a segment that overran
// the step budget. The steps of a tripping pc that fit (its folded slot
// loads and a chain's leading halves) retire and pay their cost kinds,
// but nothing executes: each only writes a dead register, or none. The
// tripping step counts as a step but retires nothing, exactly like the
// interpreter's pre-retire budget check. When it is the trailing br of
// the pc before, that pc has run and been charged whole: the br gives
// back its cost and retire.
func (m *Machine) trip(fc *fnCode, pc int) error {
	fit := m.tripFit - 1
	m.tripFit = 0
	if fit < 0 { // tripFit -1: the pc before pc ran, its trailing br tripped
		m.cycles -= m.costTab[costBranch] + m.pen[fc.idx]
		m.Executed--
		return fmt.Errorf("vm: step budget exceeded")
	}
	for _, k := range fc.kinds[fc.steps[pc]:][:fit] {
		m.cycles += m.costTab[k] + m.pen[fc.idx]
	}
	m.Executed += int64(fit)
	m.steps += int64(fit) + 1
	return fmt.Errorf("vm: step budget exceeded")
}

// fail un-charges what the segment ending at end charged for the pcs
// after pc, whose handler returned err: a handler error retires its own
// instruction but none after it. A segment that was to trip never gets
// there.
func (m *Machine) fail(fc *fnCode, pc, end int, err error) error {
	d := int64(fc.steps[end] - fc.steps[pc+1])
	m.steps -= d
	m.Executed -= d
	m.cycles -= m.segCost[fc.idx][end] - m.segCost[fc.idx][pc+1]
	m.tripFit = 0
	return err
}

// execCold runs the ops callFn's switch leaves to its default: the ones
// that are rare in the dispatch mix, or whose handlers call out
// (nested activations, builtins, long lane loops) and would make the
// hot loop spill around them, and the error of a float-tagged bitwise
// op. Its costs and a callee's go straight to the Machine's accounting
// fields. A non-nil error fails the instruction.
//
//go:noinline
func (m *Machine) execCold(fc *fnCode, fr *frame, in *instr) error {
	regs := fr.regs
	switch in.op {
	case opAlloca:
		// Allocas are function-entry allocations, assigned lazily on
		// first execution and reused on re-execution (the interpreter's
		// frameAllocs); address 0 doubles as the unassigned sentinel
		// since data addresses start at memBase.
		a := fr.allocas[in.aux]
		if a == 0 {
			a = m.alloc(in.scale)
			fr.allocas[in.aux] = a
		}
		regs[in.dst] = interp.IV(a)

	case opNeg:
		a := &regs[in.a]
		if a.Fl {
			regs[in.dst] = Val{F: -a.F, Fl: true}
		} else {
			regs[in.dst] = Val{I: trunc(in.cls, -a.I, in.unsigned)}
		}

	case opNot:
		regs[in.dst] = Val{I: trunc(in.cls, ^iv(&regs[in.a]), in.unsigned)}

	case opIBits:
		a, b := &regs[in.a], &regs[in.b]
		if a.Fl || b.Fl {
			return fmt.Errorf("vm: bitwise op %s on float operands in %s", ir.Op(in.irOp), fc.name)
		}
		regs[in.dst] = Val{I: ir.FoldInt(ir.Op(in.irOp), ir.Class(in.cls), a.I, b.I, in.unsigned)}

	case opBin:
		v, err := interp.ScalarBin(ir.Op(in.irOp), ir.Class(in.cls), regs[in.a], regs[in.b], in.unsigned)
		if err != nil {
			return fmt.Errorf("vm: %v in %s", err, fc.name)
		}
		regs[in.dst] = v

	case opDivRem:
		a, b := &regs[in.a], &regs[in.b]
		if !a.Fl && !b.Fl && b.I == 0 {
			return fmt.Errorf("vm: division by zero in %s", fc.name)
		}
		if isFloat(in.cls) || a.Fl || b.Fl {
			// ScalarBin's float path; Div/Rem never fail on floats.
			if ir.Op(in.irOp) == ir.OpDiv {
				regs[in.dst] = Val{F: fl(a) / fl(b), Fl: true}
			} else {
				regs[in.dst] = Val{F: math.Mod(fl(a), fl(b)), Fl: true}
			}
		} else {
			regs[in.dst] = Val{I: ir.FoldInt(ir.Op(in.irOp), ir.Class(in.cls), a.I, b.I, in.unsigned)}
		}

	case opCallFn:
		co := &fc.cold[in.cold]
		v, err := m.callFn(co.fn, gatherInto(fr, co.xargs, true))
		if err != nil {
			return err
		}
		if ir.Class(in.cls) != ir.Void {
			regs[in.dst] = v
		}

	case opCallBuiltin:
		co := &fc.cold[in.cold]
		v, _, err := interp.CallBuiltin(co.name, gatherInto(fr, co.xargs, false))
		m.cycles += m.mc.BuiltinCall
		if err != nil {
			return err
		}
		if ir.Class(in.cls) != ir.Void {
			regs[in.dst] = v
		}

	case opCallIndirect:
		name, ok := m.p.funcNames[iv(&regs[in.a])]
		if !ok {
			return fmt.Errorf("vm: bad indirect call in %s", fc.name)
		}
		callArgs := gatherInto(fr, fc.cold[in.cold].xargs, true)
		var v Val
		if bv, isB, err := interp.CallBuiltin(name, callArgs); isB {
			m.cycles += m.mc.BuiltinCall
			if err != nil {
				return err
			}
			v = bv
		} else if fn, ok := m.p.byName[name]; ok {
			if v, err = m.callFn(fn, callArgs); err != nil {
				return err
			}
		} else {
			return fmt.Errorf("vm: call to undefined %q from %s", name, fc.name)
		}
		if ir.Class(in.cls) != ir.Void {
			regs[in.dst] = v
		}

	case opCallUndefined:
		return fmt.Errorf("vm: call to undefined %q from %s", fc.cold[in.cold].name, fc.name)

	case opFellThrough:
		// Not a real instruction (zero steps, zero cost): the
		// interpreter errors after the block's last instruction.
		return fmt.Errorf("vm: block %s fell through in %s", fc.cold[in.cold].name, fc.name)

	case opMemset:
		ptr := iv(&regs[in.a])
		c := scalar(&regs[in.b])
		length := iv(&regs[in.c])
		for off := int64(0); off < length; off += in.scale {
			m.setCell(ptr+off, c)
		}
		m.cycles += m.mc.MemsetBase + m.mc.MemsetPerByte*length

	case opMemcpy:
		dst := iv(&regs[in.a])
		src := iv(&regs[in.b])
		length := iv(&regs[in.c])
		for off := int64(0); off < length; off += in.scale {
			m.setCell(dst+off, m.cellAt(src+off))
		}
		m.cycles += m.mc.MemsetBase + m.mc.MemsetPerByte*length

	case opVecLoad, opGEPVecLoad:
		base := iv(&regs[in.a])
		if in.op == opGEPVecLoad {
			base += iv(&regs[in.b])*in.scale + in.off
		}
		ls := fr.lanes(in)
		stride := int64(ir.Class(in.cls).Size())
		if isFloat(in.cls) {
			for l := range ls {
				ls[l] = Val{F: m.cellAt(base + int64(l)*stride).f64(), Fl: true}
			}
		} else {
			for l := range ls {
				ls[l] = Val{I: m.cellAt(base + int64(l)*stride).I}
			}
		}
		regs[in.dst] = Val{Vec: ls}

	case opVecStore, opGEPVecStore:
		base := iv(&regs[in.a])
		if in.op == opGEPVecStore {
			base += iv(&regs[in.b])*in.scale + in.off
		}
		v := &regs[in.c]
		stride := int64(ir.Class(in.cls).Size())
		for l := 0; l < int(in.width) && l < len(v.Vec); l++ {
			m.setCell(base+int64(l)*stride, scalar(&v.Vec[l]))
		}

	case opVecSplat:
		// Cloning here also launders any (degenerate) vector-of-vector
		// lane: every Vec reachable from a lane value is immutable.
		s := cloneVec(regs[in.a])
		ls := fr.lanes(in)
		for l := range ls {
			ls[l] = s
		}
		regs[in.dst] = Val{Vec: ls}

	case opVecBinF:
		// Float-class lane-wise arithmetic: the ScalarBin float path
		// (ir.FoldFloat) unrolled per opcode, one slice allocation.
		a, b := &regs[in.a], &regs[in.b]
		ls := fr.lanes(in)
		switch ir.Op(in.vecOp) {
		case ir.OpAdd:
			for l := range ls {
				ls[l] = Val{F: laneF(a, l) + laneF(b, l), Fl: true}
			}
		case ir.OpSub:
			for l := range ls {
				ls[l] = Val{F: laneF(a, l) - laneF(b, l), Fl: true}
			}
		case ir.OpMul:
			for l := range ls {
				ls[l] = Val{F: laneF(a, l) * laneF(b, l), Fl: true}
			}
		case ir.OpDiv:
			for l := range ls {
				ls[l] = Val{F: laneF(a, l) / laneF(b, l), Fl: true}
			}
		default: // ir.OpRem
			for l := range ls {
				ls[l] = Val{F: math.Mod(laneF(a, l), laneF(b, l)), Fl: true}
			}
		}
		regs[in.dst] = Val{Vec: ls}

	case opVecReduceFAdd:
		// Float add-reduction; a 1-wide reduce returns lane 0
		// untouched (interp folds from lane 0 without converting it).
		a := &regs[in.a]
		if int(in.width) == 1 {
			if a.Vec == nil {
				regs[in.dst] = *a
			} else if len(a.Vec) > 0 {
				regs[in.dst] = a.Vec[0]
			} else {
				regs[in.dst] = Val{}
			}
		} else {
			acc := laneF(a, 0)
			for l := 1; l < int(in.width); l++ {
				acc += laneF(a, l)
			}
			regs[in.dst] = Val{F: acc, Fl: true}
		}

	case opVecBinI:
		// Int-class lane-wise binary op. The dominant index-vector
		// shapes (64-bit add/sub/mul) run without the FoldInt call;
		// float-tagged lanes take ScalarBin's float path inline (for
		// add/sub/mul that is just the float op).
		a, b := &regs[in.a], &regs[in.b]
		ls := fr.lanes(in)
		i64 := ir.Class(in.cls) == ir.I64
		switch ir.Op(in.vecOp) {
		case ir.OpAdd:
			for l := range ls {
				la, lb := lanePtr(a, l), lanePtr(b, l)
				if la.Fl || lb.Fl {
					ls[l] = Val{F: fl(la) + fl(lb), Fl: true}
				} else if i64 {
					ls[l] = Val{I: la.I + lb.I}
				} else {
					ls[l] = Val{I: trunc(in.cls, la.I+lb.I, in.unsigned)}
				}
			}
		case ir.OpSub:
			for l := range ls {
				la, lb := lanePtr(a, l), lanePtr(b, l)
				if la.Fl || lb.Fl {
					ls[l] = Val{F: fl(la) - fl(lb), Fl: true}
				} else if i64 {
					ls[l] = Val{I: la.I - lb.I}
				} else {
					ls[l] = Val{I: trunc(in.cls, la.I-lb.I, in.unsigned)}
				}
			}
		case ir.OpMul:
			for l := range ls {
				la, lb := lanePtr(a, l), lanePtr(b, l)
				if la.Fl || lb.Fl {
					ls[l] = Val{F: fl(la) * fl(lb), Fl: true}
				} else if i64 {
					ls[l] = Val{I: la.I * lb.I}
				} else {
					ls[l] = Val{I: trunc(in.cls, la.I*lb.I, in.unsigned)}
				}
			}
		default:
			for l := range ls {
				la, lb := lanePtr(a, l), lanePtr(b, l)
				if la.Fl || lb.Fl {
					v, err := interp.ScalarBin(ir.Op(in.vecOp), ir.Class(in.cls), *la, *lb, in.unsigned)
					if err != nil {
						return fmt.Errorf("vm: %v in %s", err, fc.name)
					}
					ls[l] = v
				} else {
					ls[l] = Val{I: ir.FoldInt(ir.Op(in.vecOp), ir.Class(in.cls), la.I, lb.I, in.unsigned)}
				}
			}
		}
		regs[in.dst] = Val{Vec: ls}

	case opVecCmp:
		// Lane-wise compare: interp.CompareVals inlined by pointer.
		a, b := &regs[in.a], &regs[in.b]
		ls := fr.lanes(in)
		for l := range ls {
			la, lb := lanePtr(a, l), lanePtr(b, l)
			var r bool
			if la.Fl || lb.Fl {
				r = ir.CompareFloat(ir.Pred(in.pred), fl(la), fl(lb))
			} else {
				r = ir.CompareInt(ir.Pred(in.pred), la.I, lb.I, in.unsigned)
			}
			ls[l] = Val{I: b2i(r)}
		}
		regs[in.dst] = Val{Vec: ls}

	case opVecBin:
		a, b := regs[in.a], regs[in.b]
		ls := fr.lanes(in)
		for l := 0; l < int(in.width); l++ {
			la, lb := interp.Lane(a, l), interp.Lane(b, l)
			if ir.Op(in.vecOp) == ir.OpCmp {
				ls[l] = interp.IV(b2i(interp.CompareVals(ir.Pred(in.pred), la, lb, in.unsigned)))
			} else {
				v, err := interp.ScalarBin(ir.Op(in.vecOp), ir.Class(in.cls), la, lb, in.unsigned)
				if err != nil {
					return fmt.Errorf("vm: %v in %s", err, fc.name)
				}
				ls[l] = v
			}
		}
		regs[in.dst] = Val{Vec: ls}

	case opVecReduce:
		a := regs[in.a]
		acc := interp.Lane(a, 0)
		for l := 1; l < int(in.width); l++ {
			v, err := interp.ScalarBin(ir.Op(in.vecOp), ir.Class(in.cls), acc, interp.Lane(a, l), in.unsigned)
			if err != nil {
				return fmt.Errorf("vm: %v in %s", err, fc.name)
			}
			acc = v
		}
		regs[in.dst] = acc

	case opVecIota:
		ls := fr.lanes(in)
		for l := range ls {
			if isFloat(in.cls) {
				ls[l] = interp.FV(float64(l))
			} else {
				ls[l] = interp.IV(int64(l))
			}
		}
		regs[in.dst] = Val{Vec: ls}

	case opVecSelect:
		mask, x, y := regs[in.a], regs[in.b], regs[in.c]
		ls := fr.lanes(in)
		for l := 0; l < int(in.width); l++ {
			if interp.Lane(mask, l).AsInt() != 0 {
				ls[l] = interp.Lane(x, l)
			} else {
				ls[l] = interp.Lane(y, l)
			}
		}
		regs[in.dst] = Val{Vec: ls}

	case opVecCall:
		co := &fc.cold[in.cold]
		argv := gatherInto(fr, co.xargs, false)
		if cap(fr.vecArgBuf) < len(argv) {
			fr.vecArgBuf = make([]Val, len(argv))
		}
		laneArgs := fr.vecArgBuf[:len(argv)]
		ls := fr.lanes(in)
		for l := 0; l < int(in.width); l++ {
			for ai := range argv {
				laneArgs[ai] = interp.Lane(argv[ai], l)
			}
			v, ok, err := interp.CallBuiltin(co.name, laneArgs)
			if !ok || err != nil {
				return fmt.Errorf("vm: bad vcall %s", co.name)
			}
			ls[l] = v
		}
		m.cycles += m.mc.VecCallLane * int64(int(in.width))
		regs[in.dst] = Val{Vec: ls}

	default: // opUnhandled, opInvalid
		return fmt.Errorf("vm: unhandled op %s", ir.Op(in.scale))
	}
	return nil
}

// lanes is the lane buffer of the vec-producing instruction in, width
// lanes long. Buffers are per (activation, vec instruction): the first
// execution allocates, re-executions rewrite in place. Safe because
// registers are SSA (an instruction never reads its own buffer while
// writing it) and every whole-value copy that could outlive the defining
// instruction goes through cloneVec.
func (fr *frame) lanes(in *instr) []Val {
	w := int(in.width)
	b := fr.vecBufs[in.aux]
	if cap(b) < w {
		b = make([]Val, w)
		fr.vecBufs[in.aux] = b
	}
	return b[:w:w]
}

// ubcheckRun evaluates the undecided ubcheck at pc and every undecided
// check after it in its run before end, following the links linkChecks
// set, in one dispatch, and returns the pc of the run's last check
// before end. Every check keeps its pc, step and cost, and a budget trip
// or profiling shortens end, so both still see every check. It stays out
// of callFn: a loop inside the dispatch switch costs every other handler
// (DESIGN.md §9).
//
//go:noinline
func (m *Machine) ubcheckRun(fc *fnCode, regs []Val, pc, end int) int {
	code := fc.code
	for {
		in := &code[pc]
		if p := iv(&regs[in.a]); p == iv(&regs[in.b]) {
			m.SanFailures = append(m.SanFailures,
				&interp.SanitizerFailure{Fn: fc.name, Addr: p, Meta: int(in.off)})
		}
		if pc == int(in.elseT) {
			return pc
		}
		if pc = int(code[pc+1].target); pc >= end {
			return min(int(in.elseT), end-1)
		}
	}
}

// tripPoint finds where a step budget with room for r more steps runs
// out inside the segment [s, end) of fc: the pc t whose dispatch would
// take the tripping step. It returns the segment's new end and the
// Machine's tripFit: t and one more than the steps of t that still fit;
// or, when the tripping step is t's trailing br, t+1 and -1, so that t
// runs before trip gives the br back.
func tripPoint(fc *fnCode, s, end int, r int64) (int, int) {
	stepPre := fc.steps
	t := s
	for t < end && int64(stepPre[t+1]-stepPre[s]) <= r {
		t++
	}
	fit := int(r - int64(stepPre[t]-stepPre[s]))
	if t < end && fit == int(stepPre[t+1]-stepPre[t])-1 && fc.shapeAt(t).br {
		return t + 1, -1
	}
	return t, fit + 1
}

// scalar is a register value as a memory cell holds it: the payload its
// flag selects, the other half zero. Fused chains keep their
// intermediates in this form too.
func scalar(v *Val) cell {
	if v.Fl {
		return cell{F: v.F, Fl: true}
	}
	return cell{I: v.I}
}

// f64 reads c as float64, i64 as int64 through the canonical saturating
// rule: fl and iv on a cell.
func (c cell) f64() float64 {
	if c.Fl {
		return c.F
	}
	return float64(c.I)
}

func (c cell) i64() int64 {
	if c.Fl {
		return ir.FloatToInt(c.F)
	}
	return c.I
}

func isFloat(cls uint8) bool { return ir.Class(cls).IsFloat() }

func trunc(cls uint8, x int64, unsigned bool) int64 {
	return ir.TruncInt(ir.Class(cls), x, unsigned)
}

// gepAt is a fused gep's address: x, the value the chain produced, is
// its operand in.pos and o the other.
func gepAt(in *instr, x, o int64) int64 {
	if in.pos == 0 {
		return x + o*in.scale + in.off
	}
	return o + x*in.scale + in.off
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
