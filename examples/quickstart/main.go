// Quickstart: run the order-of-evaluation alias analysis on a single C
// function and print what it infers.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/ast"
	"repro/internal/ooe"
	"repro/internal/parser"
	"repro/internal/sema"
)

const src = `
void kernel(double *a, int *min, int *max) {
  // One unsequenced full expression: both stores happen with no
  // sequence point between them, so C17 6.5p2 makes aliasing *min/*max
  // undefined — which is exactly what lets the compiler assume they
  // DON'T alias.
  *min = *max = 0;
}
`

func main() {
	// 1. Parse and type-check.
	tu, perrs := parser.ParseFile("quickstart.c", src, nil)
	if len(perrs) > 0 {
		log.Fatalf("parse: %v", perrs[0])
	}
	if serrs := sema.Check(tu); len(serrs) > 0 {
		log.Fatalf("sema: %v", serrs[0])
	}

	// 2. Run the Fig. 1 analysis on every full expression.
	an := ooe.New(ooe.Config{}, ooe.FuncMap(tu))
	for _, f := range tu.Funcs {
		for _, rep := range an.AnalyzeFunction(f) {
			root := rep.Result.Root
			fmt.Printf("full expression: %s\n", ast.ExprString(root))
			sets, _ := rep.Result.Sets(root.ID())
			fmt.Printf("  reads (ω):        %s\n", describe(rep.Result, sets.Omega.Sorted()))
			fmt.Printf("  side effects (θ): %s\n", describe(rep.Result, sets.Theta.Sorted()))
			fmt.Printf("  pending (γ):      %s\n", describe(rep.Result, sets.Gamma.Sorted()))
			for _, p := range rep.Predicates {
				fmt.Printf("  inferred: %s\n", p)
			}
		}
	}
}

func describe(r *ooe.Result, ids []int) string {
	if len(ids) == 0 {
		return "{}"
	}
	s := "{"
	for i, id := range ids {
		if i > 0 {
			s += ", "
		}
		s += ast.ExprString(r.Expr(id))
	}
	return s + "}"
}
