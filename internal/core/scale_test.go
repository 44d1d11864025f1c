package core

import (
	"fmt"
	"sync"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/rdf"
)

// clickScales are the products graphs BenchmarkClickScale clicks on: 11 200,
// 112 000 and 224 000 laptops, ≈0.1, 1 and 2M triples with the closure. Each
// is generated on first use and kept for the rest of the process, so a run
// that selects one scale builds one graph.
var clickScales = func() map[int]func() *rdf.Graph {
	out := map[int]func() *rdf.Graph{}
	for _, laptops := range []int{11200, 112000, 224000} {
		out[laptops] = sync.OnceValue(func() *rdf.Graph {
			return datagen.Products(datagen.ProductsConfig{Laptops: laptops, Companies: 16, Seed: 1, Materialize: true})
		})
	}
	return out
}()

// BenchmarkClickScale prices what a user's clicks cost as the graph grows:
// the start state and the Laptop state, each rendered from cold markers
// through ComputeUIState(50, true) as the server's state writer calls it,
// and the Σ run AVG(price) grouped by manufacturer over the laptops. Run it
// with -benchmem for B/op and allocs/op: make bench-scale
func BenchmarkClickScale(b *testing.B) {
	for _, laptops := range []int{11200, 112000, 224000} {
		graph := clickScales[laptops]
		render := func(b *testing.B, click func(*Session)) {
			s := NewSession(graph(), datagen.ExampleNS)
			click(s)
			l := s.top()
			for b.Loop() {
				l.markers = nil
				s.ComputeUIState(50, true)
			}
		}
		b.Run(fmt.Sprintf("%d/start", laptops), func(b *testing.B) {
			render(b, func(*Session) {})
		})
		b.Run(fmt.Sprintf("%d/Laptop", laptops), func(b *testing.B) {
			render(b, func(s *Session) { s.ClickClass(pe("Laptop")) })
		})
		b.Run(fmt.Sprintf("%d/avg-price-by-maker", laptops), func(b *testing.B) {
			s := NewSession(graph(), datagen.ExampleNS)
			s.ClickClass(pe("Laptop"))
			s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("manufacturer")}}})
			s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: pe("price")}}}, hifun.Operation{Op: hifun.OpAvg})
			for b.Loop() {
				if ans, err := s.RunAnalytics(); err != nil || len(ans.Rows) == 0 {
					b.Fatalf("Σ: %v, %v", ans, err)
				}
			}
		})
	}
}

// BenchmarkPathSigma prices the Σ COUNT of laptops grouped by the origin of
// their hard drive's manufacturer at 560, 1 120 and 2 240 laptops. Its plan
// crosses the laptops with the origins and joins the manufacturers on their
// object, so its rows grow with the square of the laptops, and it runs at
// scales far below BenchmarkClickScale's. Part of make bench-scale.
func BenchmarkPathSigma(b *testing.B) {
	for _, laptops := range []int{560, 1120, 2240} {
		g := datagen.Products(datagen.ProductsConfig{Laptops: laptops, Companies: 16, Seed: 1, Materialize: true})
		b.Run(fmt.Sprintf("%d/count-by-origin", laptops), func(b *testing.B) {
			s := NewSession(g, datagen.ExampleNS)
			s.ClickClass(pe("Laptop"))
			s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("hardDrive")}, {P: pe("manufacturer")}, {P: pe("origin")}}})
			s.ClickAggregate(MeasureSpec{}, hifun.Operation{Op: hifun.OpCount})
			for b.Loop() {
				if ans, err := s.RunAnalytics(); err != nil || len(ans.Rows) == 0 {
					b.Fatalf("Σ: %v, %v", ans, err)
				}
			}
		})
	}
}
