package aa_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/aa"
	"repro/internal/driver"
	"repro/internal/ir"
	"repro/internal/workload"
)

// oracleStableKey is unseq-aa's former pair-order key: the pair order
// must be the order of these strings.
func oracleStableKey(v ir.Value) string {
	switch x := v.(type) {
	case *ir.Instr:
		return fmt.Sprintf("i%09d", x.ID)
	case *ir.Param:
		return fmt.Sprintf("p%04d", x.Idx)
	case *ir.Global:
		return "g" + x.Name
	case *ir.FuncRef:
		return "f" + x.Name
	case *ir.Const:
		return fmt.Sprintf("c%d|%g", x.I, x.F)
	}
	return "?"
}

// checkOrder compares every pair of vals under CompareValues and under
// the oracle keys.
func checkOrder(t *testing.T, where string, vals []ir.Value) int {
	t.Helper()
	keys := make([]string, len(vals))
	for i, v := range vals {
		keys[i] = oracleStableKey(v)
	}
	n := 0
	for i, a := range vals {
		for j, b := range vals {
			if got, want := aa.CompareValues(a, b), strings.Compare(keys[i], keys[j]); got != want {
				t.Errorf("%s: compare(%q, %q) = %d, oracle %d", where, keys[i], keys[j], got, want)
			}
			n++
		}
	}
	return n
}

// TestPairOrderEdgeCases covers each kind against each other and the
// cases where numeric and string order part: IDs and indexes past
// their padding, negative numbers, names that prefix each other, and
// constants whose decimal strings sort unlike their values.
func TestPairOrderEdgeCases(t *testing.T) {
	instr := func(id int) ir.Value { return &ir.Instr{ID: id} }
	param := func(idx int) ir.Value { return &ir.Param{Idx: idx} }
	vals := []ir.Value{
		nil,
		instr(0), instr(7), instr(10), instr(999_999_999), instr(1_000_000_000), instr(12_345_678_901), instr(-3),
		param(0), param(2), param(9999), param(10000), param(123456), param(-1),
		&ir.Global{Name: "a"}, &ir.Global{Name: "ab"}, &ir.Global{Name: "b"}, &ir.Global{Name: ""},
		&ir.FuncRef{Name: "a"}, &ir.FuncRef{Name: "f"}, &ir.FuncRef{Name: "g"},
		ir.ConstInt(ir.I64, 0), ir.ConstInt(ir.I64, -1), ir.ConstInt(ir.I64, 10), ir.ConstInt(ir.I64, 9),
		ir.ConstInt(ir.I32, 9), ir.ConstInt(ir.I64, math.MinInt64),
		ir.ConstFloat(ir.F64, 0), ir.ConstFloat(ir.F64, math.Copysign(0, -1)), ir.ConstFloat(ir.F64, 1.5),
		ir.ConstFloat(ir.F64, 1e21), ir.ConstFloat(ir.F64, math.Inf(1)), ir.ConstFloat(ir.F64, math.NaN()),
		&ir.Const{Cls: ir.F64, I: 3, F: 2.5},
	}
	checkOrder(t, "edge cases", vals)
}

// TestPairOrderMatchesOracle compares the pair order with the oracle
// keys on every pair of operand values of each function of the
// optimized corpus (capped per function).
func TestPairOrderMatchesOracle(t *testing.T) {
	units := append(workload.PolybenchKernels(), workload.GenerateUnits(workload.SpecSuite()[0])[:2]...)
	pairs := 0
	for _, u := range units {
		c, err := driver.Compile(u.Name, u.Source, driver.Config{OOElala: true, Files: workload.Files()})
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		for _, f := range c.Module.Funcs {
			seen := map[ir.Value]bool{}
			var vals []ir.Value
			add := func(v ir.Value) {
				if !seen[v] && len(vals) < 160 {
					seen[v] = true
					vals = append(vals, v)
				}
			}
			for _, p := range f.Params {
				add(p)
			}
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					add(in)
					for _, a := range in.Args {
						add(a)
					}
				}
			}
			pairs += checkOrder(t, u.Name+":"+f.Name, vals)
		}
	}
	t.Logf("%d pairs compared", pairs)
}
