package facet

import (
	"math"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
)

func TestNumericBuckets(t *testing.T) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 200, Companies: 8, Seed: 5, Materialize: true})
	m := NewModel(g)
	s := m.ClickClass(m.Start(), pe("Laptop"))
	buckets := m.NumericBuckets(s, pe("price"), 4)
	if len(buckets) != 4 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	total := 0
	for i, b := range buckets {
		if b.Hi < b.Lo {
			t.Errorf("bucket %d inverted: %+v", i, b)
		}
		if i > 0 && b.Lo != buckets[i-1].Hi {
			t.Errorf("bucket %d not contiguous", i)
		}
		total += b.Count
	}
	// Every laptop has exactly one price: counts sum to the extension size.
	if total != s.Ext.Len() {
		t.Errorf("bucket counts sum to %d, extension is %d", total, s.Ext.Len())
	}
}

func TestNumericBucketsDegenerate(t *testing.T) {
	g := rdf.MustLoadTurtle(`@prefix ex: <http://e/> .
ex:a ex:v 5 . ex:b ex:v 5 .
`)
	m := NewModel(g)
	s := m.Start()
	if b := m.NumericBuckets(s, rdf.NewIRI("http://e/v"), 3); b != nil {
		t.Errorf("single distinct value must yield nil, got %v", b)
	}
	// Non-numeric property.
	if b := m.NumericBuckets(s, rdf.NewIRI(rdf.RDFType), 3); b != nil {
		t.Errorf("non-numeric property must yield nil, got %v", b)
	}
}

// TestNumericBucketsFinite: an infinite value ("INF"^^xsd:double parses) is
// not bucketed, and a spread wider than the largest float does not overflow
// the width — every bound stays finite and the counts add up to the entities
// with a finite value. Either graph used to yield NaN or infinite bounds,
// which no JSON encoder can write.
func TestNumericBucketsFinite(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		finite    int // entities with a finite value
	}{
		{"infinite values", `ex:a ex:v 1 . ex:b ex:v 2.5 . ex:c ex:v "INF"^^xsd:double . ex:d ex:v "-INF"^^xsd:double . ex:e ex:v 7 .`, 3},
		{"overflowing spread", `ex:a ex:v -1.7e308 . ex:b ex:v 1.7e308 . ex:c ex:v 0 . ex:d ex:v 1.0e308 .`, 4},
	} {
		g := rdf.MustLoadTurtle("@prefix ex: <http://e/> .\n@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n" + tc.src)
		m := NewModel(g)
		buckets := m.NumericBuckets(m.Start(), rdf.NewIRI("http://e/v"), 5)
		if len(buckets) != 5 {
			t.Fatalf("%s: buckets = %v", tc.name, buckets)
		}
		total := 0
		for i, b := range buckets {
			if math.IsNaN(b.Lo) || math.IsInf(b.Lo, 0) || math.IsNaN(b.Hi) || math.IsInf(b.Hi, 0) || b.Hi < b.Lo {
				t.Errorf("%s: bucket %d = %+v", tc.name, i, b)
			}
			if i > 0 && b.Lo != buckets[i-1].Hi {
				t.Errorf("%s: bucket %d not contiguous", tc.name, i)
			}
			total += b.Count
		}
		if total != tc.finite {
			t.Errorf("%s: counts sum to %d, want %d: %v", tc.name, total, tc.finite, buckets)
		}
	}
}

func TestClickBucketMatchesCount(t *testing.T) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 150, Companies: 8, Seed: 9, Materialize: true})
	m := NewModel(g)
	s := m.ClickClass(m.Start(), pe("Laptop"))
	buckets := m.NumericBuckets(s, pe("price"), 5)
	for i, b := range buckets {
		last := i == len(buckets)-1
		s2 := m.ClickBucket(s, pe("price"), b, last)
		if s2.Ext.Len() != b.Count {
			t.Errorf("bucket %d: click gives %d, count says %d", i, s2.Ext.Len(), b.Count)
		}
	}
}

func TestDateBuckets(t *testing.T) {
	m := model(t)
	s := m.ClickClass(m.Start(), pe("Laptop"))
	years := m.DateBuckets(s, pe("releaseDate"))
	if len(years) != 1 {
		t.Fatalf("years = %v", years)
	}
	if years[0].Value != rdf.NewInteger(2021) || years[0].Count != 3 {
		t.Errorf("year bucket = %+v", years[0])
	}
	// Multi-year data.
	g := datagen.Products(datagen.ProductsConfig{Laptops: 200, Companies: 8, Seed: 2, Materialize: true})
	m2 := NewModel(g)
	s2 := m2.ClickClass(m2.Start(), pe("Laptop"))
	years = m2.DateBuckets(s2, pe("releaseDate"))
	if len(years) != 5 { // 2019..2023
		t.Fatalf("years = %v", years)
	}
	total := 0
	prev := int64(0)
	for _, y := range years {
		n, _ := y.Value.Int()
		if n <= prev {
			t.Error("years unsorted")
		}
		prev = n
		total += y.Count
	}
	if total != s2.Ext.Len() {
		t.Errorf("year counts sum to %d, extension %d", total, s2.Ext.Len())
	}
}
