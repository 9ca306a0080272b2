package main_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestJSONWritesOnlyFilledTables runs the CLI in a temporary directory:
// -json writes BENCH_ooebench.json only when a table that fills it
// (-table4, -table6, -interproc-ab) ran, so -attribute -json leaves an
// existing file alone instead of overwriting it with {}.
func TestJSONWritesOnlyFilledTables(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	bin := filepath.Join(t.TempDir(), "ooebench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dir := t.TempDir()
	run := func(args ...string) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("ooebench %v: %v\n%s", args, err, out)
		}
	}
	tables := filepath.Join(dir, "BENCH_ooebench.json")

	run("-table6", "-json")
	before, err := os.ReadFile(tables)
	if err != nil {
		t.Fatal(err)
	}
	var rows struct {
		Table6 []json.RawMessage `json:"table6"`
	}
	if err := json.Unmarshal(before, &rows); err != nil || len(rows.Table6) == 0 {
		t.Fatalf("-table6 -json wrote no table6 rows (%v):\n%s", err, before)
	}

	run("-attribute", "-json")
	if _, err := os.Stat(filepath.Join(dir, "BENCH_attribution.json")); err != nil {
		t.Errorf("-attribute wrote no BENCH_attribution.json: %v", err)
	}
	after, err := os.ReadFile(tables)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Errorf("-attribute -json rewrote BENCH_ooebench.json:\n%s", after)
	}
}
