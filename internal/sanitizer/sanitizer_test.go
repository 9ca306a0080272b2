package sanitizer

import (
	"errors"
	"testing"

	"repro/internal/csem"
	"repro/internal/parser"
	"repro/internal/sema"
	"repro/internal/workload"
)

func TestCleanProgramNoFailures(t *testing.T) {
	src := `void swap(int *a, int *b) { int t = *a; *a = *b; *b = t; }
int x, y;
int main() {
  x = 3; y = 4;
  int r = (x = 1) + (y = 2);
  swap(&x, &y);
  return r + x * 10 + y;
}`
	rep, err := Check("clean", src, nil, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) != 0 {
		t.Errorf("clean program flagged: %v", rep.Failures[0])
	}
	if rep.ChecksInserted == 0 {
		t.Error("expected ubcheck instrumentation for (x=1)+(y=2)")
	}
}

func TestAliasedRaceCaught(t *testing.T) {
	// The §2.5 example 5 with *p aliasing i: UB, and the sanitizer must
	// fire.
	src := `int i;
int main() {
  i = 1;
  int *p = &i;
  *p = ++i + 1;
  return i;
}`
	rep, err := Check("race", src, nil, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) == 0 {
		t.Fatal("sanitizer missed an aliasing unsequenced race")
	}
}

func TestDoubleWriteCaught(t *testing.T) {
	src := `int x;
int *p = &x;
int *q = &x;
int main() { return (*p = 1) + (*q = 2); }`
	rep, err := Check("ww", src, nil, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) == 0 {
		t.Fatal("write/write race through aliased pointers not caught")
	}
}

func TestCallPredicatesSkipped(t *testing.T) {
	// Predicates whose expressions contain calls are not instrumented
	// (§4.1): here sel() is pure, so the (*sel(&a), b) predicate exists
	// for the optimizer, but the sanitizer must skip it.
	src := `int *sel(int *p) { return p; }
int a, b;
int main() { return (*sel(&a) = 1) + (b = 2); }`
	rep, err := Check("calls", src, nil, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PredsWithCalls == 0 {
		t.Error("expected call-tagged predicates")
	}
	if rep.ChecksInserted >= rep.PredsTotal {
		t.Errorf("checks %d should be fewer than predicates %d",
			rep.ChecksInserted, rep.PredsTotal)
	}
	if len(rep.Failures) != 0 {
		t.Errorf("unexpected failure: %v", rep.Failures[0])
	}
}

// TestSanitizerAgreesWithCsem cross-validates the two UB detectors: for
// each program, if the reference nondeterministic semantics finds an
// unsequenced race on the same input, the sanitizer must fire too, and
// if csem says every order is clean the sanitizer must stay silent.
//
// (The implication is one-way by design: the sanitizer checks that the
// inferred must-not-alias pairs hold, which catches a race only if it
// occurs in ALL evaluation orders — the paper makes exactly this
// comparison with Hathhorn et al.'s stronger semantics.)
func TestSanitizerAgreesWithCsem(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"defined-swap", `int main() { int x = 1, y = 2; int r = (x = 3) + (y = 4); return r + x + y; }`},
		{"aliased-incdec", `int i; int main() { int *p = &i; return (*p = 5) + i++; }`},
		{"self-assign-ok", `int main() { int x = 2; x = x + x; return x; }`},
		{"array-elems-ok", `int a[4]; int main() { return (a[0] = 1) + (a[1] = 2); }`},
		{"array-same-elem", `int a[4]; int z; int main() { return (a[z] = 1) + (a[0] = 2); }`},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			// Reference verdict: any evaluation order undefined?
			tu, perrs := parser.ParseFile(c.name, c.src, nil)
			if len(perrs) > 0 {
				t.Fatal(perrs[0])
			}
			if errs := sema.Check(tu); len(errs) > 0 {
				t.Fatal(errs[0])
			}
			refUB := false
			oracles := []csem.Oracle{csem.LeftFirst{}, csem.RightFirst{},
				&csem.BitOracle{Bits: []uint64{1, 0, 1, 0, 1}},
				&csem.BitOracle{Bits: []uint64{0, 1, 0, 1, 0}}}
			for _, o := range oracles {
				m, err := csem.NewMachine(tu, o)
				if err == nil {
					_, err = m.Run("main")
				}
				var u *csem.Undefined
				if errors.As(err, &u) {
					refUB = true
				}
			}

			rep, err := Check(c.name, c.src, nil, "", nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			sanUB := len(rep.Failures) > 0
			if refUB && !sanUB {
				t.Errorf("csem found UB but the sanitizer stayed silent")
			}
			if !refUB && sanUB {
				t.Errorf("sanitizer flagged a program csem says is defined: %v", rep.Failures[0])
			}
		})
	}
}

// TestBitfieldPredicatesDropped: §4.2.3 — predicates with two bitfield
// sides are never instrumented (widened addresses would always "alias").
func TestBitfieldPredicatesDropped(t *testing.T) {
	src := `struct B { unsigned a : 3; unsigned b : 5; };
struct B s;
int main() { return (int)((s.a = 1) + (s.b = 2)); }`
	rep, err := Check("bitfields", src, nil, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BitfieldDropped == 0 {
		t.Error("expected the both-bitfields predicate to be dropped")
	}
	if len(rep.Failures) != 0 {
		t.Errorf("widened bitfields must not produce false positives: %v", rep.Failures[0])
	}
}

// TestAllWorkloadsSanitizeClean is the paper's §4.2.3 experiment: running
// every benchmark under the sanitizer yields zero assertion failures —
// the programmers' unsequenced patterns are conscious, correct choices.
func TestAllWorkloadsSanitizeClean(t *testing.T) {
	var programs []workload.Program
	programs = append(programs, workload.IntroMinmax(64), workload.IntroImagick(3))
	programs = append(programs, workload.PolybenchKernels()...)
	programs = append(programs, workload.ExtraPolybenchKernels()...)
	programs = append(programs,
		workload.RestrictScale(), workload.AnnotatedScale(), workload.PartialOverlapKernel())
	for _, cs := range workload.Fig2CaseStudies() {
		programs = append(programs, cs.Program)
	}
	for _, b := range workload.SpecSuite() {
		programs = append(programs, workload.GenerateUnits(b)...)
	}
	totalPreds, totalWithCalls := 0, 0
	for _, p := range programs {
		rep, err := Check(p.Name, p.Source, workload.Files(), "", nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if len(rep.Failures) != 0 {
			t.Errorf("%s: sanitizer failure %v — the pattern would be a bug", p.Name, rep.Failures[0])
		}
		totalPreds += rep.PredsTotal
		totalWithCalls += rep.PredsWithCalls
	}
	frac := 1.0
	if totalPreds > 0 {
		frac = float64(totalPreds-totalWithCalls) / float64(totalPreds)
	}
	t.Logf("call-free predicate fraction: %.1f%% (paper: >98.5%% on SPEC)", 100*frac)
	if frac < 0.5 {
		t.Errorf("call-free fraction unexpectedly low: %.2f", frac)
	}
}
