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
	restoredPerT  float64 // the same for the graph ReadBinary restores from its snapshot
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
	before = liveHeap()
	start = time.Now()
	back, err := rdf.ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil || back.Len() != g.Len() {
		panic(fmt.Sprintf("ReadBinary: %v, %d triples of %d", err, back.Len(), g.Len()))
	}
	r.readBinaryMS = float64(time.Since(start).Microseconds()) / 1e3
	r.restoredPerT = (float64(liveHeap()) - float64(before)) / float64(back.Len())
	runtime.KeepAlive(g)
	runtime.KeepAlive(back)
	runtime.KeepAlive(&buf)
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
			b.ReportMetric(r.restoredPerT, "restored-B/triple")
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
// together stay under 60 B a triple, loaded or restored from a snapshot (the
// map-of-maps indexes took 235, a map-and-slice dictionary ≈81 and, restored
// with a datatype string per literal, ≈80).
func TestLiveBytesPerTriple(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 198k triples")
	}
	r := measureScale(22400)
	t.Logf("%d triples: %.1f B/triple (restored %.1f), load %.2f s, match %.1f ns/triple, add %.2f µs, remove %.2f µs, WriteBinary %.1f ms, ReadBinary %.1f ms",
		r.triples, r.bytesPerT, r.restoredPerT, r.loadS, r.matchNsPerT, r.addUs, r.remUs, r.writeBinaryMS, r.readBinaryMS)
	if r.triples != 197982 {
		t.Fatalf("datagen drifted: %d triples, want 197982", r.triples)
	}
	if r.bytesPerT > 60 {
		t.Errorf("graph holds %.1f live bytes per triple, budget 60", r.bytesPerT)
	}
	if r.restoredPerT > 60 {
		t.Errorf("graph restored by ReadBinary holds %.1f live bytes per triple, budget 60", r.restoredPerT)
	}
}

// TestDictReadsDoNotAllocate pins the dictionary's read paths on the 99k
// products graph: a term is rebuilt from its columns, and a lookup hashes
// and probes, without touching the heap.
func TestDictReadsDoNotAllocate(t *testing.T) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 11200, Companies: 16, Seed: 1})
	price := rdf.NewIRI(datagen.ExampleNS + "price")
	priceID, ok := g.TermID(price)
	if !ok {
		t.Fatal("no price predicate")
	}
	var price0 rdf.Term // a literal the graph holds
	g.Match(rdf.Any, price, rdf.Any, func(t rdf.Triple) bool { price0 = t.O; return false })
	absent := rdf.NewIRI(datagen.ExampleNS + "noSuchThing")              // probes the table
	absentShape := rdf.NewTyped("7", datagen.ExampleNS+"noSuchDatatype") // misses on its shape
	rs := rdf.ReadSet{Preds: []rdf.Term{price, rdf.NewIRI(datagen.ExampleNS + "manufacturer"), rdf.NewIRI(datagen.ExampleNS + "noSuchPredicate")}}
	d := rdf.NewDict()
	for id := 1; id <= g.TermCount(); id++ {
		d.Intern(g.TermOf(rdf.ID(id)))
	}
	if n := d.Len(); d.Intern(price0) == 0 || d.Len() != n || !price0.IsLiteral() {
		t.Fatalf("%v is not a literal the dictionary holds", price0)
	}
	ids := []rdf.ID{priceID, 1, rdf.ID(g.TermCount())}
	var sink rdf.Term
	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"TermOf", 0, func() { sink = g.TermOf(priceID) }},
		{"TermID hit", 0, func() { g.TermID(price) }},
		{"TermID miss", 0, func() { g.TermID(absent) }},
		{"TermID shape miss", 0, func() { g.TermID(absentShape) }},
		{"ReadVersion", 0, func() { g.ReadVersion(rs) }},
		{"Intern existing", 0, func() { d.Intern(price0) }},
		{"TermsOf", 1, func() { sink = g.TermsOf(ids)[0] }},
	} {
		if got := testing.AllocsPerRun(100, c.fn); got != c.want {
			t.Errorf("%s allocates %.1f times, want %.0f", c.name, got, c.want)
		}
	}
	_ = sink
}

// BenchmarkDictionary measures the dictionary on the terms of the 198k
// products graph, per operation: interning a term it holds, looking up one
// it does not, and rebuilding a term from its ID.
func BenchmarkDictionary(b *testing.B) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 22400, Companies: 16, Seed: 1})
	rdf.Materialize(g)
	terms := make([]rdf.Term, g.TermCount())
	d := rdf.NewDict()
	for i := range terms {
		terms[i] = g.TermOf(rdf.ID(i + 1))
		d.Intern(terms[i])
	}
	misses := make([]rdf.Term, len(terms))
	for i, t := range terms {
		t.Value += "#absent"
		misses[i] = t
	}
	b.Run("intern-hit", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			d.Intern(terms[i%len(terms)])
		}
	})
	b.Run("lookup-miss", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			if _, ok := d.Lookup(misses[i%len(misses)]); ok {
				b.Fatal("hit on an absent term")
			}
		}
	})
	b.Run("term", func(b *testing.B) {
		var sink rdf.Term
		for i := 0; b.Loop(); i++ {
			sink = d.Term(rdf.ID(i%len(terms) + 1))
		}
		_ = sink
	})
}
