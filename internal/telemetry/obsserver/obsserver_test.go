package obsserver

import (
	"os"
	"testing"
)

func TestHandleLifecycle(t *testing.T) {
	cpu := t.TempDir() + "/cpu.pprof"
	mem := t.TempDir() + "/mem.pprof"
	f := &Flags{CPUProfile: cpu, MemProfile: mem}
	h, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := statNonEmpty(p); err != nil || !st {
			t.Fatalf("profile %s missing or empty (err %v)", p, err)
		}
	}
	var nilH *Handle
	if err := nilH.Close(); err != nil {
		t.Fatal("nil Handle Close must be a no-op")
	}
}

func statNonEmpty(path string) (bool, error) {
	st, err := os.Stat(path)
	if err != nil {
		return false, err
	}
	return st.Size() > 0, nil
}

// TestRegistryCloseAll: Start registers a handle, Close unregisters it,
// and CloseAll tears down whatever is still open — the mechanism behind
// obsserver.Exit, which the CLIs' error paths rely on so an in-progress
// CPU profile is never lost to os.Exit.
func TestRegistryCloseAll(t *testing.T) {
	mkHandle := func(f *Flags) *Handle {
		h, err := f.Start()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	dir := t.TempDir()
	mem1 := dir + "/mem1.pprof"
	h1 := mkHandle(&Flags{MemProfile: mem1})
	cpu, mem2 := dir+"/cpu.pprof", dir+"/mem2.pprof"
	mkHandle(&Flags{CPUProfile: cpu, MemProfile: mem2})

	// An explicitly closed handle leaves the registry: CloseAll must not
	// close it twice (Close is idempotent, but the registry should not
	// hold dead handles either).
	if err := h1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(mem1); err != nil {
		t.Fatal(err)
	}

	if err := CloseAll(); err != nil {
		t.Fatalf("CloseAll: %v", err)
	}

	// The second handle's profiles were flushed even though nobody
	// called its Close directly, and the first was not rewritten.
	for _, p := range []string{cpu, mem2} {
		if ok, err := statNonEmpty(p); err != nil || !ok {
			t.Errorf("profile %s not flushed by CloseAll (err %v)", p, err)
		}
	}
	if _, err := os.Stat(mem1); !os.IsNotExist(err) {
		t.Errorf("CloseAll closed an already-closed handle again (stat %v)", err)
	}

	// Idempotent on an empty registry.
	if err := CloseAll(); err != nil {
		t.Fatalf("second CloseAll: %v", err)
	}
}
