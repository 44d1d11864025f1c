package core

import (
	"strings"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

// sigmaGroups are the group paths of the standing benchmark's facet-session
// scripts (groupPool in benchmark/workload.go), then the three hops of
// BenchmarkClickScale's count-by-origin Σ.
var sigmaGroups = []GroupSpec{
	{Path: facet.Path{{P: pe("manufacturer")}}},
	{Path: facet.Path{{P: pe("manufacturer")}, {P: pe("origin")}}},
	{Path: facet.Path{{P: pe("releaseDate")}}, Derive: "year"},
	{Path: facet.Path{{P: pe("USBPorts")}}},
	{Path: facet.Path{{P: pe("hardDrive")}, {P: pe("manufacturer")}}},
	{Path: facet.Path{{P: pe("manufacturer")}, {P: pe("origin")}, {P: pe("locatedAt")}}},
	{Path: facet.Path{{P: pe("hardDrive")}, {P: pe("manufacturer")}, {P: pe("origin")}}},
}

// eachScan calls fn with every scan node of a profile tree.
func eachScan(n *sparql.ProfNodeJSON, fn func(*sparql.ProfNodeJSON)) {
	if n.Op == "scan" {
		fn(n)
	}
	for i := range n.Children {
		eachScan(&n.Children[i], fn)
	}
}

// TestSigmaPlansDoNotCross: a Σ over the laptops — all of them, and those
// with price ≥ 1000 and three USB ports, the standing benchmark's filtered
// shape — grouped by any of sigmaGroups and measuring COUNT or AVG(price),
// starts from the state's extension, not from a sub-select that derives it
// again, and walks its path from the laptops it binds: no step is a cross
// product, and its scans write at most twice a row per laptop for each
// pattern the run renders — the class, each hop, the measure. Planned as if the extension bound
// nothing, or with a bound variable priced by a flat factor, a path of two
// hops or more crosses the laptops with its last hop and scans tens of rows
// per laptop.
func TestSigmaPlansDoNotCross(t *testing.T) {
	const laptops = 1120
	g := datagen.Products(datagen.ProductsConfig{Laptops: laptops, Companies: 16, Seed: 1, Materialize: true})
	measures := []struct {
		spec MeasureSpec
		op   hifun.AggOp
	}{{MeasureSpec{}, hifun.OpCount}, {MeasureSpec{Path: facet.Path{{P: pe("price")}}}, hifun.OpAvg}}
	states := []struct {
		name   string
		filter func(*Session)
	}{
		{"Laptop", func(*Session) {}},
		{"Laptop, price ≥ 1000, USBPorts = 3", func(s *Session) {
			s.ClickRange(facet.Path{{P: pe("price")}}, ">=", rdf.NewInteger(1000))
			s.ClickValue(facet.Path{{P: pe("USBPorts")}}, rdf.NewInteger(3))
		}},
	}
	for _, st := range states {
		for _, group := range sigmaGroups {
			for _, m := range measures {
				s := NewSession(g, datagen.ExampleNS)
				s.ClickClass(pe("Laptop"))
				st.filter(s)
				s.ClickGroupBy(group)
				s.ClickAggregate(m.spec, hifun.Operation{Op: m.op})
				if _, err := s.RunAnalytics(); err != nil {
					t.Fatalf("%s: %v %s: %v", st.name, group, m.op, err)
				}
				_, prof := s.LastRun()
				if tree := prof.Tree(); strings.Contains(tree, "subquery") {
					t.Errorf("%s: %v %s runs a sub-select:\n%s", st.name, group, m.op, tree)
				}
				scanned, limit := int64(0), int64(2*(len(group.Path)+2)*laptops)
				eachScan(prof.Export(), func(n *sparql.ProfNodeJSON) {
					scanned += n.RowsOut
					if n.Strategy == "cross product" {
						t.Errorf("%s: %v %s: %s runs as a cross product", st.name, group, m.op, n.Label)
					}
				})
				if scanned > limit {
					t.Errorf("%s: %v %s: the scans write %d rows, more than %d:\n%s", st.name, group, m.op, scanned, limit, prof.Tree())
				}
			}
		}
	}
}
