package facet

import (
	"reflect"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
)

// TestPropertyFacetsParallelEquivalence checks the determinism contract of
// the parallel transition-marker counting: PropertyFacets must return the
// same facets, values and counts in the same order at every parallelism
// level.
func TestPropertyFacetsParallelEquivalence(t *testing.T) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 150, Companies: 10, Seed: 7, Materialize: true})
	for _, includeInverse := range []bool{false, true} {
		seq := NewModel(g)
		seq.Parallelism = 1
		parM := NewModel(g)
		parM.Parallelism = 8

		sSeq := seq.Start()
		sPar := parM.Start()
		want := seq.PropertyFacets(sSeq, includeInverse)
		got := parM.PropertyFacets(sPar, includeInverse)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("includeInverse=%v: parallel facets differ from sequential\nseq: %d facets\npar: %d facets",
				includeInverse, len(want), len(got))
		}
		if len(want) == 0 {
			t.Fatalf("includeInverse=%v: no facets computed", includeInverse)
		}
	}
}

// TestJoinsMatchReference cross-checks the ID-space Joins against the
// term-space recount of the reference model.
func TestJoinsMatchReference(t *testing.T) {
	m := model(t)
	ref := refOf(m)
	s, refStart := m.Start(), ref.Start()
	for _, p := range m.applicableProperties() {
		for _, inverse := range []bool{false, true} {
			got := m.Joins(s.Ext, p, inverse)
			want := ref.Joins(refStart.Ext, p, inverse)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("Joins(%v, inverse=%v) = %v, want %v", p, inverse, got, want)
			}
		}
	}
	// A predicate the graph has never seen joins with nothing.
	if got := m.Joins(s.Ext, rdf.NewIRI("http://nowhere/p"), false); len(got) != 0 {
		t.Errorf("unknown predicate joined %d values", len(got))
	}
}
