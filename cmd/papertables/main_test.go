package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestAllExperimentsRun executes every experiment generator in quick mode:
// the end-to-end guarantee that `papertables -all` keeps regenerating every
// table and figure — and that it does so, with its default flags, without
// writing anything into the directory it is run from.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	*quick = true
	cwd, tmp := t.TempDir(), t.TempDir()
	t.Chdir(cwd)
	t.Setenv("TMPDIR", tmp)
	// Capture stdout noise away from the test log.
	old := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	defer func() {
		os.Stdout = old
		null.Close()
	}()
	for _, e := range experiments {
		if err := e.run(); err != nil {
			t.Errorf("%s: %v", e.id, err)
		}
	}
	// E11 wrote its artifacts into a fresh directory under the temp dir.
	for _, f := range []string{"spiral.svg", "city.svg", "city.json"} {
		if m, _ := filepath.Glob(filepath.Join(tmp, "papertables-*", f)); len(m) != 1 {
			t.Errorf("artifact %s: found %v under %s", f, m, tmp)
		}
	}
	left, err := os.ReadDir(cwd)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("working directory dirtied: %s", e.Name())
	}
}
