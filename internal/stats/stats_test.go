package stats

import (
	"math"
	"math/rand"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

func TestComputeProfile(t *testing.T) {
	g := datagen.SmallInvoices()
	p := Compute(g)
	if p.Triples != g.Len() {
		t.Errorf("triples = %d, want %d", p.Triples, g.Len())
	}
	if p.DistinctSubjects == 0 || p.DistinctObjects == 0 {
		t.Error("distinct counts empty")
	}
	// Properties sorted by descending count; the invoice properties
	// (takesPlaceAt etc., 7 each) outrank brand (3).
	if len(p.Properties) == 0 {
		t.Fatal("no properties")
	}
	for i := 1; i < len(p.Properties); i++ {
		if p.Properties[i].Triples > p.Properties[i-1].Triples {
			t.Fatal("properties unsorted")
		}
	}
	var brand *PropertyStat
	for i := range p.Properties {
		if p.Properties[i].P.LocalName() == "brand" {
			brand = &p.Properties[i]
		}
	}
	if brand == nil || brand.Triples != 3 {
		t.Errorf("brand stat: %+v", brand)
	}
	// Classes: Invoice (7), Branch (3), ProductType (3).
	if p.Classes[0].Class.LocalName() != "Invoice" || p.Classes[0].Instances != 7 {
		t.Errorf("top class: %+v", p.Classes[0])
	}
}

func TestToVoIDQueryable(t *testing.T) {
	g := datagen.SmallInvoices()
	vd := Compute(g).ToVoID("http://example.org/dataset/invoices")
	// The published statistics are themselves RDF: query them with SPARQL.
	res, err := sparql.Select(vd, `PREFIX void: <`+VoIDNS+`>
SELECT ?t WHERE { ?ds a void:Dataset . ?ds void:triples ?t }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("datasets: %s", res)
	}
	if n, _ := res.Get(0, "t").Int(); n != int64(g.Len()) {
		t.Errorf("void:triples = %v", res.Get(0, "t"))
	}
	// Property partitions carry per-predicate counts.
	res, err = sparql.Select(vd, `PREFIX void: <`+VoIDNS+`>
SELECT ?p ?n WHERE {
  ?ds void:propertyPartition ?part .
  ?part void:property ?p .
  ?part void:triples ?n .
}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != len(Compute(g).Properties) {
		t.Errorf("partitions = %d", res.Len())
	}
}

func TestDegreeDistribution(t *testing.T) {
	g := rdf.MustLoadTurtle(`@prefix ex: <http://e/> .
ex:hub ex:p ex:a . ex:hub ex:p ex:b . ex:hub ex:p ex:c .
ex:a ex:q "lit" .
`)
	dist := DegreeDistribution(g)
	// hub: degree 3; a: 1 (as object) + 1 (as subject) = 2; b, c: 1.
	if dist[3] != 1 {
		t.Errorf("degree-3 count = %d (dist %v)", dist[3], dist)
	}
	if dist[2] != 1 {
		t.Errorf("degree-2 count = %d (dist %v)", dist[2], dist)
	}
	if dist[1] != 2 {
		t.Errorf("degree-1 count = %d (dist %v)", dist[1], dist)
	}
}

func TestPowerLawFitRecoversExponent(t *testing.T) {
	// Sample from the true discrete power law p(x) ∝ x^-2.5 over
	// x ∈ [1, 10000] via its CDF and check the MLE recovers alpha.
	rng := rand.New(rand.NewSource(42))
	alphaTrue := 2.5
	const maxX = 10000
	cdf := make([]float64, maxX+1)
	total := 0.0
	for x := 1; x <= maxX; x++ {
		total += math.Pow(float64(x), -alphaTrue)
		cdf[x] = total
	}
	for x := 1; x <= maxX; x++ {
		cdf[x] /= total
	}
	dist := map[int]int{}
	for i := 0; i < 20000; i++ {
		u := rng.Float64()
		// binary search for the smallest x with cdf[x] >= u
		lo, hi := 1, maxX
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] >= u {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		dist[lo]++
	}
	alpha, n := PowerLawFit(dist, 2)
	if n < 2000 {
		t.Fatalf("sample size %d", n)
	}
	if math.Abs(alpha-alphaTrue) > 0.2 {
		t.Errorf("alpha = %.3f (n=%d), want ≈ %.1f", alpha, n, alphaTrue)
	}
}

func TestPowerLawFitEdgeCases(t *testing.T) {
	if a, n := PowerLawFit(nil, 1); a != 0 || n != 0 {
		t.Errorf("empty: %v %v", a, n)
	}
	// All mass at xmin yields sum==0 -> no fit.
	if a, n := PowerLawFit(map[int]int{1: 10}, 1); a != 0 || n != 10 {
		t.Errorf("degenerate: %v %v", a, n)
	}
	// xmin filtering.
	_, n := PowerLawFit(map[int]int{1: 5, 10: 2}, 5)
	if n != 2 {
		t.Errorf("xmin filter: n=%d", n)
	}
}

func TestTopK(t *testing.T) {
	dist := map[int]int{1: 100, 2: 50, 7: 3, 40: 1}
	top := TopK(dist, 2)
	if len(top) != 2 || top[0][0] != 40 || top[1][0] != 7 {
		t.Errorf("top = %v", top)
	}
}

// TestProductsKGDegreeShape: the generated products KG has a right-skewed
// degree distribution (companies and countries act as hubs) — the shape the
// C5 analyses look for.
func TestProductsKGDegreeShape(t *testing.T) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 300, Companies: 8, Seed: 1, Materialize: true})
	dist := DegreeDistribution(g)
	maxDeg := 0
	for d := range dist {
		if d > maxDeg {
			maxDeg = d
		}
	}
	// Hubs (companies referenced by many laptops) have degree far above the
	// median entity.
	if maxDeg < 40 {
		t.Errorf("max degree = %d; expected hub structure", maxDeg)
	}
	alpha, n := PowerLawFit(dist, 2)
	if n == 0 || alpha <= 1 {
		t.Errorf("fit degenerate: alpha=%v n=%d", alpha, n)
	}
}
