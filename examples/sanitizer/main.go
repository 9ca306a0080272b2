// Sanitizer example: the same unsequenced expression is fine when its
// pointers refer to different objects and an unsequenced race when they
// alias — and the UBSan derivation catches the race at runtime.
//
//	go run ./examples/sanitizer
package main

import (
	"fmt"
	"log"

	"repro/internal/sanitizer"
)

const clean = `
int x, y;
int run(int *p, int *q) { return (*p = 1) + (*q = 2); }
int main() { return run(&x, &y); }
`

const racy = `
int x;
int run(int *p, int *q) { return (*p = 1) + (*q = 2); }
int main() { return run(&x, &x); }
`

func main() {
	for _, prog := range []struct{ name, src string }{
		{"distinct-objects", clean},
		{"aliased-objects", racy},
	} {
		rep, err := sanitizer.Check(prog.name, prog.src, nil, "", nil, nil)
		if err != nil {
			log.Fatalf("%s: %v", prog.name, err)
		}
		fmt.Printf("%s: %d checks inserted, result %d\n",
			prog.name, rep.ChecksInserted, rep.Result)
		if len(rep.Failures) == 0 {
			fmt.Println("  clean: no unsequenced race on this input")
		}
		for _, f := range rep.Failures {
			fmt.Printf("  CAUGHT: %s\n", f)
		}
		fmt.Println()
	}
	fmt.Println("The paper ran these checks over all of SPEC CPU 2017 and found zero")
	fmt.Println("failures: the unsequenced patterns in real code are conscious choices.")
}
