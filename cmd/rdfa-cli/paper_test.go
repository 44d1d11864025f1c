package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestAllExperimentsRun executes every experiment generator in quick mode:
// the end-to-end guarantee that `rdfa-cli paper` keeps regenerating every
// table and figure — and that it does so, with its default flags, without
// writing anything into the directory it is run from.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	cwd, tmp := t.TempDir(), t.TempDir()
	t.Chdir(cwd)
	t.Setenv("TMPDIR", tmp)
	p := &paper{out: io.Discard, quick: true}
	for _, e := range experiments {
		if err := e.run(p); err != nil {
			t.Errorf("%s: %v", e.id, err)
		}
	}
	// E11 wrote its artifacts into a fresh directory under the temp dir.
	for _, f := range []string{"spiral.svg", "city.svg", "city.json"} {
		if m, _ := filepath.Glob(filepath.Join(tmp, "rdfa-paper-*", f)); len(m) != 1 {
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
