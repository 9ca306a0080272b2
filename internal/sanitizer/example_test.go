package sanitizer_test

import (
	"fmt"

	"repro/internal/sanitizer"
)

// ExampleCheck demonstrates the paper's §4.1 UBSan derivation: the same
// expression is clean with distinct objects and a caught race when the
// pointers alias.
func ExampleCheck() {
	kernel := `int run(int *p, int *q) { return (*p = 1) + (*q = 2); }
int x, y;
int main() { return run(&x, %s); }`

	for _, arg := range []string{"&y", "&x"} {
		src := fmt.Sprintf(kernel, arg)
		rep, err := sanitizer.Check("example.c", src, nil, "", nil, nil)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("run(&x, %s): %d violations\n", arg, len(rep.Failures))
	}
	// Output:
	// run(&x, &y): 0 violations
	// run(&x, &x): 1 violations
}
