package sparql_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

// The plan oracle: testdata/plans.golden holds, for every SELECT of the
// conformance corpus and every BenchmarkJoinStep shape on its graph, the
// profile tree of one run — operators in the order they ran, each scan with
// its pattern and the planner's estimate, every node with its calls and rows
// in and out — without durations and without the join type each scan ran
// as. Only a change to the cost model or its statistics may move a plan;
// a change to how a step runs must move no plan and no row count.
//
//	go test ./internal/sparql -run TestPlansMatchGolden -update-plans   # re-record

var updatePlans = flag.Bool("update-plans", false, "re-record testdata/plans.golden from the current engine")

const plansGolden = "testdata/plans.golden"

func TestPlansMatchGolden(t *testing.T) {
	var sb strings.Builder
	record := func(name string, g *rdf.Graph, query string) {
		prof := sparql.NewProfile("query")
		q, err := sparql.Parse(query)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := sparql.ExecSelectOpts(g, q, sparql.Options{Profile: prof}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&sb, "# %s\n", name)
		writePlan(&sb, *prof.Export(), 0)
	}
	for _, c := range corpusSelects(t) {
		name := c.Category + "/" + c.Name
		g, query := loadCorpusCase(t, name)
		record("corpus "+name, g, query)
	}
	g := datagen.Products(datagen.ProductsConfig{Laptops: 22400, Companies: 16, Seed: 1})
	rdf.Materialize(g)
	for _, c := range joinStepShapes {
		record("join-step "+c.name, g, joinStepPrefix+c.query)
	}
	if *updatePlans {
		if err := os.WriteFile(plansGolden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(plansGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("plans differ from %s at line %d:\n got: %s\nwant: %s", plansGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("plans differ from %s: %d lines, recorded %d", plansGolden, len(gl), len(wl))
	}
}

// writePlan writes one line per profile node, depth-first in the order the
// operators ran: op, label, calls, rows in and out, and a scan's estimate.
func writePlan(sb *strings.Builder, n sparql.ProfNodeJSON, depth int) {
	fmt.Fprintf(sb, "%s%s %s calls=%d rows=%d→%d", strings.Repeat("  ", depth), n.Op, n.Label, n.Calls, n.RowsIn, n.RowsOut)
	if n.EstRows != nil {
		fmt.Fprintf(sb, " est=%d", *n.EstRows)
	}
	sb.WriteByte('\n')
	for _, c := range n.Children {
		writePlan(sb, c, depth+1)
	}
}
