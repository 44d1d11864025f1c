package facet

import (
	"math/rand"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
)

// TestRandomWalkInvariants drives long random interaction walks over a
// generated KG and checks, at every state, the model's core invariants:
//
//  1. soundness of counts — every transition marker's count equals the size
//     of the extension its click produces;
//  2. no dead ends — every offered marker leads to a non-empty state;
//  3. intention/extension agreement — the SPARQL compilation of the state's
//     intention (Table 5.2) answers exactly the set-computed extension
//     (Table 5.1).
func TestRandomWalkInvariants(t *testing.T) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 120, Companies: 8, Seed: 21, Materialize: true})
	m := NewModel(g)
	rng := rand.New(rand.NewSource(77))
	for walk := 0; walk < 12; walk++ {
		s := m.Start()
		// Start from a random class with instances.
		classes := m.ClassFacet(s)
		if len(classes) == 0 {
			t.Fatal("no classes")
		}
		var flat []ClassNode
		var collect func(ns []ClassNode)
		collect = func(ns []ClassNode) {
			for _, n := range ns {
				if n.Count > 0 {
					flat = append(flat, n)
				}
				collect(n.Children)
			}
		}
		collect(classes)
		s = m.ClickClass(s, flat[rng.Intn(len(flat))].Class)
		for step := 0; step < 4; step++ {
			facets := m.PropertyFacets(s, rng.Intn(2) == 0)
			if len(facets) == 0 {
				break
			}
			f := facets[rng.Intn(len(facets))]
			if len(f.Values) == 0 {
				continue
			}
			vc := m.Decode(f.Values)[rng.Intn(len(f.Values))]
			path := Path{{P: f.P, Inverse: f.Inverse}}
			next := m.ClickValue(s, path, vc.Value)
			// Invariant 1+2: count soundness, no dead ends.
			if next.Ext.Len() != vc.Count {
				t.Fatalf("walk %d step %d: marker %s=%s count %d but extension %d",
					walk, step, f.P.LocalName(), vc.Value.LocalName(), vc.Count, next.Ext.Len())
			}
			if next.Ext.Len() == 0 {
				t.Fatalf("walk %d step %d: dead end offered", walk, step)
			}
			s = next
			// Invariant 3: intention/extension agreement.
			ans, err := s.Int.Answer(m.G)
			if err != nil {
				t.Fatalf("walk %d step %d: intention failed: %v\n%s",
					walk, step, err, s.Int.ToSPARQL())
			}
			got := NewTermSet(ans...)
			if got.Len() != s.Ext.Len() {
				t.Fatalf("walk %d step %d: SPARQL %d vs sets %d\nintention: %s",
					walk, step, got.Len(), s.Ext.Len(), s.Int)
			}
			for _, e := range s.Ext.Items() {
				if !got.Has(e) {
					t.Fatalf("walk %d step %d: %v missing from SPARQL answer", walk, step, e)
				}
			}
		}
	}
}

// TestRandomWalkWithPivots mixes focus switches into the walks; invariant 3
// must keep holding across entity-type changes.
func TestRandomWalkWithPivots(t *testing.T) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 80, Companies: 6, Seed: 5, Materialize: true})
	m := NewModel(g)
	rng := rand.New(rand.NewSource(55))
	pe := func(l string) rdf.Term { return rdf.NewIRI(datagen.ExampleNS + l) }
	for walk := 0; walk < 8; walk++ {
		s := m.ClickClass(m.Start(), pe("Laptop"))
		for step := 0; step < 3; step++ {
			if rng.Intn(2) == 0 {
				// Pivot along a random applicable property.
				facets := m.PropertyFacets(s, false)
				var resourceFacets []Facet
				for _, f := range facets {
					if len(f.Values) > 0 && m.Decode(f.Values)[0].Value.IsResource() {
						resourceFacets = append(resourceFacets, f)
					}
				}
				if len(resourceFacets) == 0 {
					continue
				}
				f := resourceFacets[rng.Intn(len(resourceFacets))]
				s = m.SwitchFocus(s, PathStep{P: f.P, Inverse: f.Inverse})
			} else {
				facets := m.PropertyFacets(s, false)
				if len(facets) == 0 {
					break
				}
				f := facets[rng.Intn(len(facets))]
				if len(f.Values) == 0 {
					continue
				}
				s = m.ClickValue(s, Path{{P: f.P, Inverse: f.Inverse}},
					m.Decode(f.Values)[rng.Intn(len(f.Values))].Value)
			}
			if s.Ext.Len() == 0 {
				t.Fatalf("walk %d step %d: empty extension", walk, step)
			}
			ans, err := s.Int.Answer(m.G)
			if err != nil {
				t.Fatalf("walk %d step %d: %v\n%s", walk, step, err, s.Int.ToSPARQL())
			}
			got := NewTermSet(ans...)
			if got.Len() != s.Ext.Len() {
				t.Fatalf("walk %d step %d: SPARQL %d vs sets %d\n%s\n%s",
					walk, step, got.Len(), s.Ext.Len(), s.Int, s.Int.ToSPARQL())
			}
		}
	}
}
