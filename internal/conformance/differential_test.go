package conformance

// Differential oracle: a HIFUN analytic query executed through the full
// HIFUN→SPARQL→engine pipeline must agree with the same facet computed
// directly on the graph by a plain Go scan. The two implementations share no
// code below the graph API, so agreement on every (dataset, operation) pair
// is strong evidence that the translation and the aggregate evaluator are
// both right — and any divergence pinpoints which query shape is broken.

import (
	"fmt"
	"math"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/rdf"
)

func inv(local string) rdf.Term { return rdf.NewIRI(datagen.InvoicesNS + local) }

// directBranchAgg computes op over inQuantity grouped by takesPlaceAt with a
// straight double scan of the graph — no SPARQL, no HIFUN.
func directBranchAgg(g *rdf.Graph, op string) map[string]float64 {
	type acc struct {
		sum      int64
		min, max int64
		n        int64
	}
	accs := map[string]*acc{}
	g.Match(rdf.Any, inv("takesPlaceAt"), rdf.Any, func(t rdf.Triple) bool {
		branch := t.O.LocalName()
		g.Match(t.S, inv("inQuantity"), rdf.Any, func(u rdf.Triple) bool {
			q, ok := u.O.Int()
			if !ok {
				return true
			}
			a := accs[branch]
			if a == nil {
				a = &acc{min: math.MaxInt64, max: math.MinInt64}
				accs[branch] = a
			}
			a.sum += q
			a.n++
			if q < a.min {
				a.min = q
			}
			if q > a.max {
				a.max = q
			}
			return true
		})
		return true
	})
	out := map[string]float64{}
	for b, a := range accs {
		switch op {
		case "SUM":
			out[b] = float64(a.sum)
		case "COUNT":
			out[b] = float64(a.n)
		case "MIN":
			out[b] = float64(a.min)
		case "MAX":
			out[b] = float64(a.max)
		case "AVG":
			out[b] = float64(a.sum) / float64(a.n)
		}
	}
	return out
}

// directBrandCount counts invoices per brand through the delivers→brand
// attribute chain.
func directBrandCount(g *rdf.Graph) map[string]float64 {
	out := map[string]float64{}
	g.Match(rdf.Any, inv("delivers"), rdf.Any, func(t rdf.Triple) bool {
		// Only invoices count as data items; delivers is invoice-only in both
		// datasets but be explicit anyway.
		g.Match(t.O, inv("brand"), rdf.Any, func(u rdf.Triple) bool {
			out[u.O.LocalName()]++
			return true
		})
		return true
	})
	return out
}

func diffGraphs() map[string]*rdf.Graph {
	return map[string]*rdf.Graph{
		"small": datagen.SmallInvoices(),
		"gen":   datagen.Invoices(datagen.InvoicesConfig{Invoices: 400, Branches: 7, Products: 15, Brands: 5, Seed: 11}),
	}
}

func answerMap(t *testing.T, a *hifun.Answer) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, row := range a.Rows() {
		if len(row) != 2 {
			t.Fatalf("want 2-column answer rows, got %d", len(row))
		}
		f, ok := row[1].Float()
		if !ok {
			t.Fatalf("non-numeric measure %s for group %s", row[1], row[0])
		}
		out[row[0].LocalName()] = f
	}
	return out
}

func compareMaps(t *testing.T, label string, got, want map[string]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups via HIFUN, %d via direct scan\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for k, w := range want {
		gv, ok := got[k]
		if !ok {
			t.Fatalf("%s: group %s missing from HIFUN answer", label, k)
		}
		if math.Abs(gv-w) > 1e-9*math.Max(1, math.Abs(w)) {
			t.Fatalf("%s: group %s: HIFUN %v, direct %v", label, k, gv, w)
		}
	}
}

// TestHIFUNDifferentialBranchAggregates pins (takesPlaceAt, inQuantity, op)
// for every aggregation operation against the direct scan, on both the
// hand-written dataset and a seeded generated one.
func TestHIFUNDifferentialBranchAggregates(t *testing.T) {
	for name, g := range diffGraphs() {
		ctx := hifun.NewContext(g, datagen.InvoicesNS).WithRoot(inv("Invoice"))
		for _, op := range []string{"SUM", "COUNT", "MIN", "MAX", "AVG"} {
			label := name + "/" + op
			ans, err := ctx.ExecuteText(fmt.Sprintf("(takesPlaceAt, inQuantity, %s)", op))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			compareMaps(t, label, answerMap(t, ans), directBranchAgg(g, op))
		}
	}
}

// TestHIFUNDifferentialBrandChain pins the attribute-composition query
// (brand.delivers, ID, COUNT) against the direct two-hop scan.
func TestHIFUNDifferentialBrandChain(t *testing.T) {
	for name, g := range diffGraphs() {
		ctx := hifun.NewContext(g, datagen.InvoicesNS).WithRoot(inv("Invoice"))
		ans, err := ctx.ExecuteText("(brand.delivers, ID, COUNT)")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		compareMaps(t, name+"/brand-chain", answerMap(t, ans), directBrandCount(g))
	}
}
