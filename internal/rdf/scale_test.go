package rdf_test

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
)

// scaleReport is what one load of the products graph at a given size costs:
// the numbers ROADMAP item 1 asks for beyond the standing benchmark's 198k.
type scaleReport struct {
	triples       int
	loadS         float64 // datagen.Products + rdf.Materialize
	bytesPerT     float64 // live heap the graph holds, after two GCs
	matchNsPerT   float64 // predicate-bound Match, per triple yielded
	addUs, remUs  float64 // one triple of an INSERT DATA-sized batch, delta non-empty
	readBinaryMS  float64
	writeBinaryMS float64
}

// insertSize is how many triples the timed Add / Remove batches hold: what
// one INSERT DATA of the benchmark's mixed-rw workload carries.
const insertSize = 50

func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

func measureScale(laptops int) scaleReport {
	var r scaleReport
	before := liveHeap()
	start := time.Now()
	g := datagen.Products(datagen.ProductsConfig{Laptops: laptops, Companies: 16, Seed: 1})
	rdf.Materialize(g)
	r.loadS = time.Since(start).Seconds()
	r.triples = g.Len()
	r.bytesPerT = (float64(liveHeap()) - float64(before)) / float64(r.triples)

	price := rdf.NewIRI(datagen.ExampleNS + "price")
	var perTriple []float64
	for i := 0; i < 5; i++ {
		n := 0
		start = time.Now()
		g.Match(rdf.Any, price, rdf.Any, func(rdf.Triple) bool { n++; return true })
		perTriple = append(perTriple, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	r.matchNsPerT = median(perTriple)

	// A pending write first, so the timed batches meet a non-empty delta.
	note := rdf.NewIRI(datagen.ExampleNS + "scaleNote")
	g.Add(rdf.Triple{S: price, P: note, O: rdf.NewInteger(-1)})
	batch := make([]rdf.Triple, insertSize)
	var adds, rems []float64
	for round := 0; round < 21; round++ {
		for i := range batch {
			s := rdf.NewIRI(fmt.Sprintf("%slaptop%d", datagen.ExampleNS, 1+(round*insertSize+i)*7%laptops))
			batch[i] = rdf.Triple{S: s, P: note, O: rdf.NewInteger(int64(round*insertSize + i))}
		}
		start = time.Now()
		for _, t := range batch {
			g.Add(t)
		}
		adds = append(adds, float64(time.Since(start).Microseconds())/insertSize)
		start = time.Now()
		for _, t := range batch {
			g.Remove(t)
		}
		rems = append(rems, float64(time.Since(start).Microseconds())/insertSize)
	}
	r.addUs, r.remUs = median(adds), median(rems)

	var buf bytes.Buffer
	start = time.Now()
	if err := g.WriteBinary(&buf); err != nil {
		panic(err)
	}
	r.writeBinaryMS = float64(time.Since(start).Microseconds()) / 1e3
	start = time.Now()
	back, err := rdf.ReadBinary(&buf)
	if err != nil || back.Len() != g.Len() {
		panic(fmt.Sprintf("ReadBinary: %v, %d triples of %d", err, back.Len(), g.Len()))
	}
	r.readBinaryMS = float64(time.Since(start).Microseconds()) / 1e3
	runtime.KeepAlive(g)
	return r
}

// BenchmarkGraphScale loads the products graph at the standing benchmark's
// largest scale and at the two ROADMAP item 1 names beyond it. Run one load
// per size: make bench-scale
func BenchmarkGraphScale(b *testing.B) {
	for _, sc := range []struct {
		name    string
		laptops int
	}{{"200k", 22400}, {"1M", 113000}, {"2M", 226000}} {
		b.Run(sc.name, func(b *testing.B) {
			var r scaleReport
			for i := 0; i < b.N; i++ {
				r = measureScale(sc.laptops)
			}
			b.ReportMetric(float64(r.triples), "triples")
			b.ReportMetric(r.loadS, "load-s")
			b.ReportMetric(r.bytesPerT, "B/triple")
			b.ReportMetric(r.matchNsPerT, "match-ns/triple")
			b.ReportMetric(r.addUs, "add-µs")
			b.ReportMetric(r.remUs, "remove-µs")
			b.ReportMetric(r.writeBinaryMS, "WriteBinary-ms")
			b.ReportMetric(r.readBinaryMS, "ReadBinary-ms")
		})
	}
}

// TestLiveBytesPerTriple holds the graph to its memory budget at the
// standing benchmark's 197 982 triples: dictionary and three permutations
// together stay under 120 B a triple (the map-of-maps indexes took 235).
func TestLiveBytesPerTriple(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 198k triples")
	}
	r := measureScale(22400)
	t.Logf("%d triples: %.1f B/triple, load %.2f s, match %.1f ns/triple, add %.2f µs, remove %.2f µs, WriteBinary %.1f ms, ReadBinary %.1f ms",
		r.triples, r.bytesPerT, r.loadS, r.matchNsPerT, r.addUs, r.remUs, r.writeBinaryMS, r.readBinaryMS)
	if r.triples != 197982 {
		t.Fatalf("datagen drifted: %d triples, want 197982", r.triples)
	}
	if r.bytesPerT > 120 {
		t.Errorf("graph holds %.1f live bytes per triple, budget 120", r.bytesPerT)
	}
}
