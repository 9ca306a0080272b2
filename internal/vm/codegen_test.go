package vm

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestNoFusedMultiplyAddOnArm64 cross-builds this package's test binary
// for arm64 and disassembles it: no Machine method may contain a fused
// multiply-add. The Go compiler fuses x*y+z into one FMA on arm64, which
// rounds once where the interpreter's separate multiply and add round
// twice, so one such instruction in a float handler breaks bit-exactness
// with the tree-walker. TestFMulFAddRoundsTheProduct catches that only
// when it runs on a machine whose compiler fuses; this test fails on any
// host. It needs no network: the standard library is built from GOROOT.
func TestNoFusedMultiplyAddOnArm64(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-builds the package for arm64")
	}
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	bin := filepath.Join(t.TempDir(), "vm.test")
	build := exec.Command(goBin, "test", "-c", "-o", bin, ".")
	build.Env = append(os.Environ(), "GOARCH=arm64", "CGO_ENABLED=0")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("arm64 build: %v\n%s", err, out)
	}
	out, err := exec.Command(goBin, "tool", "objdump", "-s", `vm\.\(\*Machine\)\.`, bin).CombinedOutput()
	if err != nil {
		t.Fatalf("objdump: %v\n%s", err, out)
	}
	fma := regexp.MustCompile(`\bF(N?)M(ADD|SUB)D\b`)
	fn, methods := "", 0
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "TEXT ") {
			fn = strings.Fields(line)[1]
			methods++
			continue
		}
		if fma.MatchString(line) {
			t.Errorf("%s: fused multiply-add: %s", fn, strings.Join(strings.Fields(line), " "))
		}
	}
	if methods == 0 || !strings.Contains(string(out), "(*Machine).callFn(SB)") {
		t.Fatalf("objdump found %d Machine methods and no callFn; the symbol pattern is stale", methods)
	}
}
