package aa

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ir"
)

// This file is the interprocedural half of the alias subsystem:
// bottom-up call-graph summaries that let the chain answer mod/ref
// queries at call sites instead of treating every call as a
// clobber-everything barrier. A summary describes, per function, which
// memory a call to it may read or write — partitioned into effects
// through each pointer parameter, effects on named globals, and an
// Unknown bucket for everything the analysis cannot attribute
// (escaped pointers, external or indirect callees). Effects through a
// parameter are resolved at each call site through the actual argument
// with ordinary Alias queries in the caller's chain, which is exactly
// where a caller's unseq-aa π pair (a, b) gets to answer NoAlias for
// an access made inside the callee.

// Effect is a mod/ref bitmask over one memory partition.
type Effect uint8

const (
	// RefEffect marks a possible read.
	RefEffect Effect = 1 << iota
	// ModEffect marks a possible write.
	ModEffect
)

// ModRefEffect is the top of the effect lattice: may read and write.
const ModRefEffect = RefEffect | ModEffect

func (e Effect) String() string {
	switch e {
	case 0:
		return "none"
	case RefEffect:
		return "ref"
	case ModEffect:
		return "mod"
	}
	return "mod+ref"
}

// WholeObject is a Location.Size sentinel meaning "any offset, in
// either direction, within the pointer's underlying object". Providers
// that reason about offsets or access extents must stay conservative
// when they see it: basic-aa keeps only its distinct-object facts, and
// unseq-aa refuses the query entirely (a π fact about two exact
// pointer values says nothing about other offsets from them).
const WholeObject = -1

// ParamEffect is a function's accumulated effect on memory reachable
// through one pointer parameter.
type ParamEffect struct {
	// Eff is the mod/ref accumulation; zero means the parameter's
	// pointee is never touched.
	Eff Effect
	// Wide marks accesses at non-zero or variable offsets from the
	// parameter (p[i], p+4, memset): call-site resolution must use a
	// WholeObject query. When false, every access is through the exact
	// parameter value and DirectSize/DirectCls describe it, so the
	// call-site query is value-exact — the shape unseq-aa π facts can
	// answer.
	Wide bool
	// DirectSize is the widest exact-pointer access in bytes.
	DirectSize int
	// DirectCls is the access class when every exact access agrees
	// (ir.Void otherwise).
	DirectCls ir.Class
}

// GlobalEffect is a function's accumulated effect on one global.
type GlobalEffect struct {
	Global *ir.Global
	Eff    Effect
}

// PiParamPair is a must-not-alias fact between two pointer parameters,
// exported from a function's entry block (which executes whenever the
// function is called) so callers can register the fact on their actual
// arguments. Meta is the originating π predicate's provenance id.
type PiParamPair struct {
	I, J int
	Meta int
}

// FuncSummary is one function's interprocedural summary.
type FuncSummary struct {
	Fn     *ir.Func
	Params []ParamEffect
	// Globals lists touched globals in first-touch order (deterministic:
	// the builder walks blocks in order).
	Globals []GlobalEffect
	// Unknown is the effect on memory the analysis cannot attribute to
	// a parameter or global: accesses through escaped or loaded
	// pointers, and the whole effect of external or indirect callees.
	// ModRefEffect here reproduces the legacy call barrier.
	Unknown Effect
	// PiPairs are the exported parameter-level π facts.
	PiPairs []PiParamPair

	globalIdx map[*ir.Global]int
}

// Top reports whether the summary is the clobber-everything barrier.
func (fs *FuncSummary) Top() bool { return fs.Unknown == ModRefEffect }

// Empty reports whether a call to the function provably touches no
// memory visible to the caller (the readnone shape).
func (fs *FuncSummary) Empty() bool {
	if fs.Unknown != 0 || len(fs.Globals) > 0 {
		return false
	}
	for _, pe := range fs.Params {
		if pe.Eff != 0 {
			return false
		}
	}
	return true
}

func (fs *FuncSummary) addGlobal(g *ir.Global, eff Effect) {
	if eff == 0 {
		return
	}
	if fs.globalIdx == nil {
		fs.globalIdx = map[*ir.Global]int{}
	}
	if i, ok := fs.globalIdx[g]; ok {
		fs.Globals[i].Eff |= eff
		return
	}
	fs.globalIdx[g] = len(fs.Globals)
	fs.Globals = append(fs.Globals, GlobalEffect{Global: g, Eff: eff})
}

func (fs *FuncSummary) addPi(i, j, meta int) {
	if i == j {
		return
	}
	if j < i {
		i, j = j, i
	}
	for _, p := range fs.PiPairs {
		if p.I == i && p.J == j {
			return
		}
	}
	fs.PiPairs = append(fs.PiPairs, PiParamPair{I: i, J: j, Meta: meta})
}

// equal compares two summaries field-wise (the fixpoint convergence
// test).
func (fs *FuncSummary) equal(o *FuncSummary) bool {
	if fs.Unknown != o.Unknown ||
		len(fs.Params) != len(o.Params) ||
		len(fs.Globals) != len(o.Globals) ||
		len(fs.PiPairs) != len(o.PiPairs) {
		return false
	}
	for i := range fs.Params {
		if fs.Params[i] != o.Params[i] {
			return false
		}
	}
	for i := range fs.Globals {
		if fs.Globals[i] != o.Globals[i] {
			return false
		}
	}
	for i := range fs.PiPairs {
		if fs.PiPairs[i] != o.PiPairs[i] {
			return false
		}
	}
	return true
}

// String renders the summary for -print-summaries.
func (fs *FuncSummary) String() string {
	var b strings.Builder
	b.WriteString("params[")
	for i, pe := range fs.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		name := fmt.Sprintf("p%d", i)
		if fs.Fn != nil && i < len(fs.Fn.Params) {
			name = fs.Fn.Params[i].Name
		}
		b.WriteString(name + ": " + pe.Eff.String())
		if pe.Eff != 0 {
			if pe.Wide {
				b.WriteString("(wide)")
			} else {
				fmt.Fprintf(&b, "(%dB %s)", pe.DirectSize, pe.DirectCls)
			}
		}
	}
	b.WriteString("] globals[")
	for i, ge := range fs.Globals {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("@" + ge.Global.Name + ": " + ge.Eff.String())
	}
	b.WriteString("] unknown: " + fs.Unknown.String())
	if len(fs.PiPairs) > 0 {
		b.WriteString(" pi[")
		for i, p := range fs.PiPairs {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(p%d,p%d)#%d", p.I, p.J, p.Meta)
		}
		b.WriteString("]")
	}
	return b.String()
}

// emptySummary is the shared readnone summary for pure external
// builtins.
var emptySummary = &FuncSummary{}

// Summaries is the module's summary table, computed once from the
// pre-pipeline IR (see BuildSummaries) and treated as read-only by the
// per-function pipelines — which keeps -j1 and -jN byte-identical and
// stays sound because optimization never makes a function touch memory
// it could not already touch.
type Summaries struct {
	byName     map[string]*FuncSummary
	pureExtern func(string) bool
}

// Of returns the named module function's summary (nil if absent).
func (s *Summaries) Of(name string) *FuncSummary {
	if s == nil {
		return nil
	}
	return s.byName[name]
}

// ForCall resolves the summary governing a call instruction: the
// callee's for a direct in-module call, the shared empty summary for a
// pure external builtin, and nil — degrade to ⊤ — for indirect calls
// and unknown externals.
func (s *Summaries) ForCall(in *ir.Instr) *FuncSummary {
	if s == nil || in == nil || in.Op != ir.OpCall || in.Callee == "" {
		return nil
	}
	if fs, ok := s.byName[in.Callee]; ok {
		return fs
	}
	if s.pureExtern != nil && s.pureExtern(in.Callee) {
		return emptySummary
	}
	return nil
}

// Len returns the number of summarized functions.
func (s *Summaries) Len() int {
	if s == nil {
		return 0
	}
	return len(s.byName)
}

// String renders every summary, sorted by function name (the dump is
// consumed by -print-summaries and tests; module order is not stable
// across seeds the way names are).
func (s *Summaries) String() string {
	names := make([]string, 0, len(s.byName))
	for n := range s.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("summaries:\n")
	for _, n := range names {
		b.WriteString("  " + n + ": " + s.byName[n].String() + "\n")
	}
	return b.String()
}

// BuildSummaries computes every function's summary in bottom-up SCC
// order. bottomUp groups functions so that each group's callees are in
// the group itself or an earlier one (passes.CallGraph.BottomUp);
// recursive components iterate to a fixpoint, which terminates because
// every summary component grows monotonically in a finite lattice.
// pureExtern classifies external callees with no body that are known
// readnone (the pure math builtins); all other externals are ⊤.
func BuildSummaries(mod *ir.Module, bottomUp [][]*ir.Func, pureExtern func(string) bool) *Summaries {
	s := &Summaries{byName: make(map[string]*FuncSummary, len(mod.Funcs)), pureExtern: pureExtern}
	// Pre-register every function at the lattice bottom so same-SCC
	// callees resolve during fixpoint iteration.
	for _, f := range mod.Funcs {
		s.byName[f.Name] = &FuncSummary{Fn: f, Params: make([]ParamEffect, len(f.Params))}
	}
	for _, scc := range bottomUp {
		for {
			changed := false
			for _, f := range scc {
				ns := summarize(f, s)
				if !ns.equal(s.byName[f.Name]) {
					s.byName[f.Name] = ns
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	return s
}

// ---------- per-function summary construction ----------

type originKind uint8

const (
	originLocal originKind = iota
	originParam
	originGlobal
	originUnknown
	// originCycle marks a slot resolution that reached itself (pointer
	// induction: p = p + 1). The cyclic contribution is an offset chain
	// over the slot's other stored values, so it joins as "same origin,
	// not plain".
	originCycle
)

// origin is a pointer value resolved to the memory partition it
// addresses.
type origin struct {
	kind   originKind
	param  int
	global *ir.Global
	// plain marks a pointer equal to the partition's base value itself
	// (no GEP offset anywhere in the chain) — the shape whose call-site
	// resolution can be value-exact.
	plain bool
}

func joinOrigin(a, b origin) origin {
	if a.kind == originCycle {
		b.plain = false
		return b
	}
	if b.kind == originCycle {
		a.plain = false
		return a
	}
	if a.kind != b.kind {
		return origin{kind: originUnknown}
	}
	switch a.kind {
	case originParam:
		if a.param != b.param {
			return origin{kind: originUnknown}
		}
	case originGlobal:
		if a.global != b.global {
			return origin{kind: originUnknown}
		}
	}
	a.plain = a.plain && b.plain
	return a
}

// slotInfo describes one alloca used purely as a load/store slot.
type slotInfo struct {
	stores []ir.Value
	clean  bool
}

type summaryBuilder struct {
	fn   *ir.Func
	sums *Summaries
	out  *FuncSummary

	slots    map[*ir.Instr]*slotInfo
	memo     map[ir.Value]origin
	visiting map[*ir.Instr]bool
}

// summarize computes fn's summary against the current (possibly
// partial, for same-SCC callees) table.
func summarize(fn *ir.Func, sums *Summaries) *FuncSummary {
	out := &FuncSummary{Fn: fn, Params: make([]ParamEffect, len(fn.Params))}
	if fn.ReadNone {
		return out
	}
	sb := &summaryBuilder{
		fn:       fn,
		sums:     sums,
		out:      out,
		memo:     map[ir.Value]origin{},
		visiting: map[*ir.Instr]bool{},
	}
	sb.scanSlots()
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpLoad:
				sb.access(in.Args[0], RefEffect, in.Cls.Size(), in.Cls, false)
			case ir.OpVecLoad:
				sb.access(in.Args[0], RefEffect, in.Cls.Size()*in.Width, in.Cls, false)
			case ir.OpStore:
				cls := in.Args[1].Class()
				sb.access(in.Args[0], ModEffect, cls.Size(), cls, false)
			case ir.OpVecStore:
				sb.access(in.Args[0], ModEffect, in.Cls.Size()*in.Width, in.Cls, false)
			case ir.OpMemset:
				sb.access(in.Args[0], ModEffect, 0, ir.Void, true)
			case ir.OpMemcpy:
				sb.access(in.Args[0], ModEffect, 0, ir.Void, true)
				sb.access(in.Args[1], RefEffect, 0, ir.Void, true)
			case ir.OpCall:
				sb.call(in)
			}
		}
	}
	sb.exportPi()
	return out
}

// scanSlots classifies fn's allocas: a slot is clean when its address
// value is only ever used directly as a load/store address (so the set
// of values a load can yield is exactly the set of stored values).
func (sb *summaryBuilder) scanSlots() {
	sb.slots = map[*ir.Instr]*slotInfo{}
	for _, b := range sb.fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpAlloca {
				sb.slots[in] = &slotInfo{clean: true}
			}
		}
	}
	for _, b := range sb.fn.Blocks {
		for _, in := range b.Instrs {
			for ai, a := range in.Args {
				al, ok := a.(*ir.Instr)
				if !ok || al.Op != ir.OpAlloca {
					continue
				}
				si := sb.slots[al]
				if si == nil {
					continue
				}
				switch {
				case in.Op == ir.OpLoad && ai == 0:
					// address use
				case in.Op == ir.OpStore && ai == 0:
					si.stores = append(si.stores, in.Args[1])
				case in.Op == ir.OpMustNotAlias:
					// annotation use: neither a store nor an escape
				default:
					si.clean = false
				}
			}
		}
	}
}

// originOf resolves a pointer value to the partition it addresses.
func (sb *summaryBuilder) originOf(v ir.Value) origin {
	if o, ok := sb.memo[v]; ok {
		return o
	}
	o := sb.resolve(v)
	if o.kind != originCycle {
		sb.memo[v] = o
	}
	return o
}

func (sb *summaryBuilder) resolve(v ir.Value) origin {
	d := decompose(v)
	plain := d.constOff == 0 && !d.hasVarIdx
	switch base := d.base.(type) {
	case *ir.Param:
		if base.Idx < len(sb.fn.Params) && sb.fn.Params[base.Idx] == base {
			return origin{kind: originParam, param: base.Idx, plain: plain}
		}
		// A parameter of some other function (inliner leftovers would be
		// a bug, but stay conservative).
		return origin{kind: originUnknown}
	case *ir.Global:
		return origin{kind: originGlobal, global: base, plain: plain}
	case *ir.Instr:
		switch base.Op {
		case ir.OpAlloca:
			return origin{kind: originLocal, plain: plain}
		case ir.OpLoad:
			al, ok := base.Args[0].(*ir.Instr)
			if !ok || al.Op != ir.OpAlloca {
				return origin{kind: originUnknown}
			}
			si := sb.slots[al]
			if si == nil || !si.clean || len(si.stores) == 0 {
				return origin{kind: originUnknown}
			}
			if sb.visiting[al] {
				return origin{kind: originCycle}
			}
			sb.visiting[al] = true
			// Seed from the first stored value, then join the rest: the
			// originCycle kind is reserved for genuinely cyclic stores
			// (pointer induction), which poison plain-ness on join.
			acc := origin{kind: originCycle}
			for si2, sv := range si.stores {
				if si2 == 0 {
					acc = sb.originOf(sv)
				} else {
					acc = joinOrigin(acc, sb.originOf(sv))
				}
				if acc.kind == originUnknown {
					break
				}
			}
			delete(sb.visiting, al)
			if acc.kind == originCycle {
				// Every store was cyclic: nothing ever initialized the
				// slot from outside; give up.
				acc = origin{kind: originUnknown}
			}
			if !plain {
				acc.plain = false
			}
			return acc
		}
	}
	return origin{kind: originUnknown}
}

// access records one memory access through ptr.
func (sb *summaryBuilder) access(ptr ir.Value, eff Effect, size int, cls ir.Class, wide bool) {
	o := sb.originOf(ptr)
	sb.record(o, eff, size, cls, wide || !o.plain)
}

func (sb *summaryBuilder) record(o origin, eff Effect, size int, cls ir.Class, wide bool) {
	if eff == 0 {
		return
	}
	switch o.kind {
	case originLocal:
		// Function-local memory is invisible to callers. (Returning a
		// pointer to it is already undefined behaviour, so a caller
		// access through it is outside the semantics we must preserve.)
	case originParam:
		pe := &sb.out.Params[o.param]
		pe.Eff |= eff
		if wide {
			pe.Wide = true
			return
		}
		// DirectSize == 0 marks "no direct access recorded yet" (class
		// sizes are all positive).
		if pe.DirectSize == 0 {
			pe.DirectCls = cls
		} else if pe.DirectCls != cls {
			pe.DirectCls = ir.Void
		}
		if size > pe.DirectSize {
			pe.DirectSize = size
		}
	case originGlobal:
		sb.out.addGlobal(o.global, eff)
	default:
		sb.out.Unknown |= eff
	}
}

// call merges a callee's summary through the call's actual arguments.
func (sb *summaryBuilder) call(in *ir.Instr) {
	cs := sb.sums.ForCall(in)
	if cs == nil {
		sb.out.Unknown = ModRefEffect
		return
	}
	sb.out.Unknown |= cs.Unknown
	for _, ge := range cs.Globals {
		sb.out.addGlobal(ge.Global, ge.Eff)
	}
	for i, pe := range cs.Params {
		if pe.Eff == 0 {
			continue
		}
		if i >= len(in.Args) {
			sb.out.Unknown |= pe.Eff
			continue
		}
		o := sb.originOf(in.Args[i])
		sb.record(o, pe.Eff, pe.DirectSize, pe.DirectCls, pe.Wide || !o.plain)
	}
}

// exportPi lifts entry-block π facts over plain parameter pointers into
// the summary, including facts a direct entry-block callee exports over
// arguments that are themselves plain parameters (transitive
// propagation; monotone, so safe under the SCC fixpoint).
func (sb *summaryBuilder) exportPi() {
	entry := sb.fn.Entry()
	if entry == nil {
		return
	}
	paramOf := func(v ir.Value) (int, bool) {
		o := sb.originOf(v)
		return o.param, o.kind == originParam && o.plain
	}
	for _, in := range entry.Instrs {
		switch in.Op {
		case ir.OpMustNotAlias:
			if len(in.Args) != 2 {
				continue
			}
			i, iok := paramOf(in.Args[0])
			j, jok := paramOf(in.Args[1])
			if iok && jok {
				sb.out.addPi(i, j, in.Meta)
			}
		case ir.OpCall:
			cs := sb.sums.ForCall(in)
			if cs == nil {
				continue
			}
			for _, p := range cs.PiPairs {
				if p.I >= len(in.Args) || p.J >= len(in.Args) {
					continue
				}
				i, iok := paramOf(in.Args[p.I])
				j, jok := paramOf(in.Args[p.J])
				if iok && jok {
					sb.out.addPi(i, j, p.Meta)
				}
			}
		}
	}
}
