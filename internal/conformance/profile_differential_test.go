package conformance

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

// TestProfileCorpusDifferential runs every SELECT case of the conformance
// corpus twice — once plain, once with the operator profiler attached — and
// requires the serialized results to be byte-identical. Profiling must be a
// pure observer: it may never change row content, order, or error behavior,
// on any query shape the corpus covers.
func TestProfileCorpusDifferential(t *testing.T) {
	cases, err := LoadCases("testdata")
	if err != nil {
		t.Fatal(err)
	}
	selects := 0
	for _, c := range cases {
		if c.Expect != "expect.srj" {
			continue
		}
		selects++
		t.Run(c.Category+"/"+c.Name, func(t *testing.T) {
			dataBytes, err := os.ReadFile(filepath.Join(c.Dir, "data.ttl"))
			if err != nil {
				t.Fatal(err)
			}
			g, err := rdf.LoadTurtleString(string(dataBytes))
			if err != nil {
				t.Fatal(err)
			}
			queryBytes, err := os.ReadFile(filepath.Join(c.Dir, "query.rq"))
			if err != nil {
				t.Fatal(err)
			}
			q, err := sparql.Parse(string(queryBytes))
			if err != nil {
				t.Fatal(err)
			}
			plain, plainErr := sparql.ExecSelectTable(context.Background(), g, q, sparql.Options{})
			prof := sparql.NewProfile("query")
			profiled, profErr := sparql.ExecSelectTable(context.Background(), g, q, sparql.Options{Profile: prof})
			if (plainErr == nil) != (profErr == nil) {
				t.Fatalf("error divergence: plain=%v profiled=%v", plainErr, profErr)
			}
			if plainErr != nil {
				return
			}
			// Property-path evaluation yields rows in nondeterministic order
			// (set semantics over map iteration), so for cases without ORDER BY
			// canonicalize both runs the same way the CLI and server do before
			// comparing bytes.
			if !c.Ordered {
				plain.Sort()
				profiled.Sort()
			}
			if a, b := plain.JSON(), profiled.JSON(); !bytes.Equal(a, b) {
				t.Errorf("profiled run diverged:\nplain:    %s\nprofiled: %s", a, b)
			}
			if prof.Root() == nil || prof.Tree() == "" {
				t.Error("profile empty after profiled run")
			}
		})
	}
	if selects == 0 {
		t.Fatal("corpus has no SELECT cases")
	}
}
