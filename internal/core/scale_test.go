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
// and four Σ runs: AVG(price) grouped by manufacturer at the start state,
// over every individual, and over the laptops; the same over the laptops
// with price ≥ 1000 and three USB ports, the shape of the standing
// benchmark's facet sessions (a range and a value click); and COUNT of the
// laptops grouped by the origin of their hard drive's manufacturer, a path
// of three hops. Run it with -benchmem for B/op and allocs/op: make
// bench-scale
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
		laptop := func(s *Session) { s.ClickClass(pe("Laptop")) }
		sigma := func(b *testing.B, click func(*Session), group facet.Path, measure MeasureSpec, op hifun.AggOp) {
			s := NewSession(graph(), datagen.ExampleNS)
			click(s)
			s.ClickGroupBy(GroupSpec{Path: group})
			s.ClickAggregate(measure, hifun.Operation{Op: op})
			for b.Loop() {
				if ans, err := s.RunAnalytics(); err != nil || len(ans.Rows()) == 0 {
					b.Fatalf("Σ: %v, %v", ans, err)
				}
			}
		}
		b.Run(fmt.Sprintf("%d/start", laptops), func(b *testing.B) {
			render(b, func(*Session) {})
		})
		b.Run(fmt.Sprintf("%d/Laptop", laptops), func(b *testing.B) {
			render(b, func(s *Session) { s.ClickClass(pe("Laptop")) })
		})
		b.Run(fmt.Sprintf("%d/start-avg-price-by-maker", laptops), func(b *testing.B) {
			sigma(b, func(*Session) {}, facet.Path{{P: pe("manufacturer")}}, MeasureSpec{Path: facet.Path{{P: pe("price")}}}, hifun.OpAvg)
		})
		b.Run(fmt.Sprintf("%d/avg-price-by-maker", laptops), func(b *testing.B) {
			sigma(b, laptop, facet.Path{{P: pe("manufacturer")}}, MeasureSpec{Path: facet.Path{{P: pe("price")}}}, hifun.OpAvg)
		})
		b.Run(fmt.Sprintf("%d/filtered-avg-price-by-maker", laptops), func(b *testing.B) {
			sigma(b, func(s *Session) {
				laptop(s)
				s.ClickRange(facet.Path{{P: pe("price")}}, ">=", rdf.NewInteger(1000))
				s.ClickValue(facet.Path{{P: pe("USBPorts")}}, rdf.NewInteger(3))
			}, facet.Path{{P: pe("manufacturer")}}, MeasureSpec{Path: facet.Path{{P: pe("price")}}}, hifun.OpAvg)
		})
		b.Run(fmt.Sprintf("%d/count-by-origin", laptops), func(b *testing.B) {
			sigma(b, laptop, facet.Path{{P: pe("hardDrive")}, {P: pe("manufacturer")}, {P: pe("origin")}}, MeasureSpec{}, hifun.OpCount)
		})
	}
}
