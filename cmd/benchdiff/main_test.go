package main_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildBenchdiff(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "benchdiff")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func runBenchdiff(t *testing.T, bin string, args ...string) (stdout string, exit int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var ob bytes.Buffer
	cmd.Stdout, cmd.Stderr = &ob, &ob
	err := cmd.Run()
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("run %v: %v", args, err)
		}
		exit = ee.ExitCode()
	}
	return ob.String(), exit
}

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMetricsMode pins the -metrics contract: per-span totals from two
// -metrics-json exports are diffed, growth beyond the tolerance or a
// missing span fails with exit 1, and within-tolerance runs pass.
func TestMetricsMode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	bin := buildBenchdiff(t)
	dir := t.TempDir()

	base := writeFile(t, dir, "base.json", `{"phases": [
		{"name": "phase/parse", "count": 1, "total_ns": 1000000},
		{"name": "phase/opt", "count": 1, "total_ns": 4000000}
	]}`)

	t.Run("within-tolerance-is-zero", func(t *testing.T) {
		cur := writeFile(t, dir, "ok.json", `{"phases": [
			{"name": "phase/parse", "count": 1, "total_ns": 1050000},
			{"name": "phase/opt", "count": 1, "total_ns": 3900000}
		]}`)
		out, exit := runBenchdiff(t, bin, "-metrics", base, cur)
		if exit != 0 {
			t.Fatalf("exit = %d, want 0\n%s", exit, out)
		}
		if !strings.Contains(out, "all spans within") {
			t.Errorf("missing pass summary:\n%s", out)
		}
	})

	t.Run("regression-is-one", func(t *testing.T) {
		cur := writeFile(t, dir, "slow.json", `{"phases": [
			{"name": "phase/parse", "count": 1, "total_ns": 1000000},
			{"name": "phase/opt", "count": 1, "total_ns": 5000000}
		]}`)
		out, exit := runBenchdiff(t, bin, "-metrics", base, cur)
		if exit != 1 {
			t.Fatalf("exit = %d, want 1\n%s", exit, out)
		}
		if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "phase/opt") {
			t.Errorf("regression not attributed to phase/opt:\n%s", out)
		}
	})

	t.Run("missing-span-is-one", func(t *testing.T) {
		cur := writeFile(t, dir, "missing.json", `{"phases": [
			{"name": "phase/parse", "count": 1, "total_ns": 1000000}
		]}`)
		out, exit := runBenchdiff(t, bin, "-metrics", base, cur)
		if exit != 1 {
			t.Fatalf("exit = %d, want 1\n%s", exit, out)
		}
		if !strings.Contains(out, "MISSING") {
			t.Errorf("missing span not reported:\n%s", out)
		}
	})

	t.Run("no-phases-is-one", func(t *testing.T) {
		cur := writeFile(t, dir, "empty.json", `{"counters": []}`)
		out, exit := runBenchdiff(t, bin, "-metrics", base, cur)
		if exit != 1 {
			t.Fatalf("exit = %d, want 1\n%s", exit, out)
		}
		if !strings.Contains(out, "-time-passes") {
			t.Errorf("empty input should hint at -time-passes:\n%s", out)
		}
	})

	t.Run("usage-is-two", func(t *testing.T) {
		_, exit := runBenchdiff(t, bin, "-metrics", base)
		if exit != 2 {
			t.Fatalf("exit = %d, want 2", exit)
		}
	})

	t.Run("two-modes-is-two", func(t *testing.T) {
		out, exit := runBenchdiff(t, bin, "-metrics", "-gobench", base, base)
		if exit != 2 {
			t.Fatalf("exit = %d, want 2\n%s", exit, out)
		}
		if !strings.Contains(out, "-metrics|-gobench") {
			t.Errorf("usage line does not list the modes:\n%s", out)
		}
	})
}
