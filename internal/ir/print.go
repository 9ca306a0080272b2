package ir

import (
	"fmt"
	"strings"
)

// String renders the module in a textual form (for golden tests and
// debugging).
func (m *Module) String() string {
	var b strings.Builder
	for _, g := range m.Globals {
		fmt.Fprintf(&b, "global @%s [%d bytes]\n", g.Name, g.Size)
	}
	for _, f := range m.Funcs {
		b.WriteString(f.String())
	}
	return b.String()
}

// String renders the function.
func (f *Func) String() string {
	var b strings.Builder
	attrs := ""
	if f.ReadNone {
		attrs = " readnone"
	}
	params := make([]string, len(f.Params))
	for i, p := range f.Params {
		params[i] = fmt.Sprintf("%s %%%s", p.Cls, p.Name)
	}
	fmt.Fprintf(&b, "func @%s(%s) %s%s {\n", f.Name, strings.Join(params, ", "), f.Ret, attrs)
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "%s:\n", blk.Name)
		for _, in := range blk.Instrs {
			fmt.Fprintf(&b, "  %s\n", in.String())
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// String renders one instruction.
func (i *Instr) String() string {
	arg := func(n int) string {
		if n < len(i.Args) && i.Args[n] != nil {
			return i.Args[n].vname()
		}
		return "<nil>"
	}
	switch i.Op {
	case OpAlloca:
		return fmt.Sprintf("%s = alloca %q [%d bytes]", i.vname(), i.Name, i.AllocSz)
	case OpLoad:
		v := fmt.Sprintf("%s = load %s %s", i.vname(), i.Cls, arg(0))
		if i.Volatile {
			v += " volatile"
		}
		return v
	case OpStore:
		v := fmt.Sprintf("store %s %s -> %s", i.Args[1].Class(), arg(1), arg(0))
		if i.Volatile {
			v += " volatile"
		}
		return v
	case OpGEP:
		return fmt.Sprintf("%s = gep %s + %s*%d + %d", i.vname(), arg(0), arg(1), i.Scale, i.Off)
	case OpCmp:
		sign := ""
		if i.Unsigned {
			sign = "u"
		}
		return fmt.Sprintf("%s = cmp.%s%s %s, %s", i.vname(), sign, i.Pred, arg(0), arg(1))
	case OpSelect:
		return fmt.Sprintf("%s = select %s ? %s : %s", i.vname(), arg(0), arg(1), arg(2))
	case OpConvert:
		return fmt.Sprintf("%s = convert %s to %s", i.vname(), arg(0), i.Cls)
	case OpCall:
		args := make([]string, len(i.Args))
		for n := range i.Args {
			args[n] = arg(n)
		}
		callee := i.Callee
		if callee == "" && len(args) > 0 {
			callee = "*" + args[0]
			args = args[1:]
		}
		if i.Cls == Void {
			return fmt.Sprintf("call @%s(%s)", callee, strings.Join(args, ", "))
		}
		return fmt.Sprintf("%s = call @%s(%s)", i.vname(), callee, strings.Join(args, ", "))
	case OpBr:
		return fmt.Sprintf("br %s", i.Target.Name)
	case OpCondBr:
		return fmt.Sprintf("condbr %s ? %s : %s", arg(0), i.Then.Name, i.Else.Name)
	case OpRet:
		if len(i.Args) == 0 {
			return "ret"
		}
		return fmt.Sprintf("ret %s", arg(0))
	case OpMustNotAlias:
		return fmt.Sprintf("mustnotalias(%s, %s)", arg(0), arg(1))
	case OpUBCheck:
		return fmt.Sprintf("ubcheck(%s, %s)", arg(0), arg(1))
	case OpMemset:
		return fmt.Sprintf("memset(%s, %s, %s)", arg(0), arg(1), arg(2))
	case OpMemcpy:
		return fmt.Sprintf("memcpy(%s, %s, %s)", arg(0), arg(1), arg(2))
	case OpVecLoad:
		return fmt.Sprintf("%s = vload.%dx%s %s", i.vname(), i.Width, i.Cls, arg(0))
	case OpVecStore:
		return fmt.Sprintf("vstore.%d %s -> %s", i.Width, arg(1), arg(0))
	case OpVecBin:
		return fmt.Sprintf("%s = vbin.%s.%d %s, %s", i.vname(), i.VecOp, i.Width, arg(0), arg(1))
	case OpVecSplat:
		return fmt.Sprintf("%s = vsplat.%d %s", i.vname(), i.Width, arg(0))
	case OpVecReduce:
		return fmt.Sprintf("%s = vreduce.%s.%d %s", i.vname(), i.VecOp, i.Width, arg(0))
	case OpNeg, OpNot:
		return fmt.Sprintf("%s = %s %s", i.vname(), i.Op, arg(0))
	default:
		args := make([]string, len(i.Args))
		for n := range i.Args {
			args[n] = arg(n)
		}
		if i.Cls == Void {
			return fmt.Sprintf("%s %s", i.Op, strings.Join(args, ", "))
		}
		return fmt.Sprintf("%s = %s.%s %s", i.vname(), i.Op, i.Cls, strings.Join(args, ", "))
	}
}

// Verify checks structural invariants: every block terminated, operands
// defined in the same function, branch targets present, block IDs
// unique and below NumBlockIDs, instruction IDs unique and below NumIDs.
// It returns the list of problems found.
func (m *Module) Verify() []string {
	var problems []string
	for _, f := range m.Funcs {
		problems = append(problems, f.Verify()...)
	}
	return problems
}

// Verify checks one function's structural invariants.
func (f *Func) Verify() []string {
	var problems []string
	// blocks holds f's blocks by ID, so a branch target is f's own
	// exactly when it is the block its ID names.
	blocks := make([]*Block, f.nextBlkID)
	for _, b := range f.Blocks {
		switch {
		case b.Fn != f:
			problems = append(problems, fmt.Sprintf("%s: block %s belongs to another function", f.Name, b.Name))
		case b.ID < 0 || b.ID >= len(blocks):
			problems = append(problems, fmt.Sprintf("%s: block %s has ID %d outside [0, %d)", f.Name, b.Name, b.ID, len(blocks)))
		case blocks[b.ID] != nil:
			problems = append(problems, fmt.Sprintf("%s: blocks %s and %s share ID %d", f.Name, blocks[b.ID].Name, b.Name, b.ID))
		default:
			blocks[b.ID] = b
		}
	}
	own := func(b *Block) bool { return f.owns(b) && blocks[b.ID] == b }
	defined := make(map[Value]bool)
	for _, p := range f.Params {
		defined[p] = true
	}
	// First pass: all instruction values and their IDs.
	ids := make([]bool, f.nextID)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			defined[in] = true
			switch {
			case in.ID < 0 || in.ID >= len(ids):
				problems = append(problems, fmt.Sprintf("%s: %s has ID outside [0, %d)", f.Name, in.vname(), len(ids)))
			case ids[in.ID]:
				problems = append(problems, fmt.Sprintf("%s: duplicate instruction ID %s", f.Name, in.vname()))
			default:
				ids[in.ID] = true
			}
		}
	}
	for _, b := range f.Blocks {
		if b.Terminator() == nil {
			problems = append(problems, fmt.Sprintf("%s: block %s not terminated", f.Name, b.Name))
		}
		for idx, in := range b.Instrs {
			if in.IsTerminator() && idx != len(b.Instrs)-1 {
				problems = append(problems, fmt.Sprintf("%s: terminator mid-block in %s", f.Name, b.Name))
			}
			for _, a := range in.Args {
				if a == nil {
					problems = append(problems, fmt.Sprintf("%s: nil operand in %s", f.Name, in))
					continue
				}
				switch v := a.(type) {
				case *Instr:
					if !defined[v] {
						problems = append(problems, fmt.Sprintf("%s: operand %s of %s not defined in function", f.Name, v.vname(), in))
					}
				case *Const, *Global, *Param, *FuncRef:
					if p, ok := v.(*Param); ok && !defined[p] {
						problems = append(problems, fmt.Sprintf("%s: foreign param %s", f.Name, p.Name))
					}
				}
			}
			switch in.Op {
			case OpBr:
				if !own(in.Target) {
					problems = append(problems, fmt.Sprintf("%s: br to foreign block", f.Name))
				}
			case OpCondBr:
				if !own(in.Then) || !own(in.Else) {
					problems = append(problems, fmt.Sprintf("%s: condbr to foreign block", f.Name))
				}
			}
		}
	}
	return problems
}
