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
	dirPerT       float64 // of which the two directories
	restoredPerT  float64 // the same for the graph ReadBinary restores from its snapshot
	matchNsPerT   float64 // predicate-bound Match, per triple yielded
	addUs, remUs  float64 // one triple of an INSERT DATA-sized batch, delta non-empty
	addP99Us      float64 // p99 of stallAdds single Adds, a run across delta merges
	addMaxMS      float64 // the slowest of them: a merge rewriting the arrays
	readBinaryMS  float64
	writeBinaryMS float64
}

// insertSize is how many triples the timed Add / Remove batches hold: what
// one INSERT DATA of the benchmark's mixed-rw workload carries.
const insertSize = 50

// stallAdds is how many single Adds the merge-stall run times: the graph
// merges its delta into the arrays once 1 025 changes are pending, so 5 120
// Adds, of which one in 16 is already present, cross at least four merges.
const stallAdds = 5 << 10

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
	r.dirPerT = float64(rdf.DirectoryBytes(g)) / float64(r.triples)

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

	// A second manufacturer for existing laptops: subject, predicate and
	// object all exist, so a merge inserts into the middle of every array.
	maker := rdf.NewIRI(datagen.ExampleNS + "manufacturer")
	lat, added := make([]float64, stallAdds), make([]rdf.Triple, 0, stallAdds)
	for i := range lat {
		t := rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("%slaptop%d", datagen.ExampleNS, 1+i*7%laptops)),
			P: maker,
			O: rdf.NewIRI(fmt.Sprintf("%sCompany%d", datagen.ExampleNS, 1+i%16)),
		}
		start = time.Now()
		fresh := g.Add(t)
		lat[i] = float64(time.Since(start).Nanoseconds())
		if fresh {
			added = append(added, t)
		}
	}
	slices.Sort(lat)
	r.addP99Us, r.addMaxMS = lat[len(lat)*99/100]/1e3, lat[len(lat)-1]/1e6
	for _, t := range added {
		g.Remove(t)
	}

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
			b.ReportMetric(r.dirPerT, "dir-B/triple")
			b.ReportMetric(r.restoredPerT, "restored-B/triple")
			b.ReportMetric(r.matchNsPerT, "match-ns/triple")
			b.ReportMetric(r.addUs, "add-µs")
			b.ReportMetric(r.remUs, "remove-µs")
			b.ReportMetric(r.addP99Us, "add-p99-µs")
			b.ReportMetric(r.addMaxMS, "add-max-ms")
			b.ReportMetric(r.writeBinaryMS, "WriteBinary-ms")
			b.ReportMetric(r.readBinaryMS, "ReadBinary-ms")
		})
	}
}

// TestLiveBytesPerTriple holds the graph to its memory budget at the
// standing benchmark's 197 982 triples: dictionary and two packed
// permutations with their directories together stay under 34 B a triple
// loaded, 33 restored from a snapshot — a byte above what each reads (the
// map-of-maps indexes took 235, a map-and-slice dictionary ≈81 and, restored
// with a datatype string per literal, ≈80; a third permutation ≈53, and
// 12-byte keys instead of packed words ≈41).
func TestLiveBytesPerTriple(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 198k triples")
	}
	r := measureScale(22400)
	t.Logf("%d triples: %.1f B/triple (restored %.1f, directories %.2f), load %.2f s, match %.1f ns/triple, add %.2f µs (p99 %.2f µs, max %.2f ms), remove %.2f µs, WriteBinary %.1f ms, ReadBinary %.1f ms",
		r.triples, r.bytesPerT, r.restoredPerT, r.dirPerT, r.loadS, r.matchNsPerT, r.addUs, r.addP99Us, r.addMaxMS, r.remUs, r.writeBinaryMS, r.readBinaryMS)
	if r.triples != 197982 {
		t.Fatalf("datagen drifted: %d triples, want 197982", r.triples)
	}
	if r.bytesPerT > 34 {
		t.Errorf("graph holds %.1f live bytes per triple, budget 34", r.bytesPerT)
	}
	if r.restoredPerT > 33 {
		t.Errorf("graph restored by ReadBinary holds %.1f live bytes per triple, budget 33", r.restoredPerT)
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

// TestObjectLookupsDoNotAllocate pins the object-bound patterns on the 99k
// products graph: enumerating and counting ?s ?p <o> and <s> ?p <o> over 256
// sampled objects touches no heap. So do their subject-bound siblings <s> <p>
// ?o and <s> <p> <o>, whose subject run the directory finds, one MatchIDs at
// a time or all 256 through one MatchIDsEach, and the predicate-bound ones
// ?s <p> ?o and ?s <p> <o>, whose predicate run POS's directory finds.
func TestObjectLookupsDoNotAllocate(t *testing.T) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 11200, Companies: 16, Seed: 1})
	sample := objectSample(g, 256)
	rows := 0
	count := func(_, _, _ rdf.ID) bool { rows++; return true }
	subjectBound := make([][3]rdf.ID, len(sample))
	for i, spo := range sample {
		subjectBound[i] = [3]rdf.ID{spo[0], spo[1], 0}
	}
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"MatchIDs(0, 0, o)", func() {
			for _, spo := range sample {
				g.MatchIDs(0, 0, spo[2], count)
			}
		}},
		{"MatchCountIDs(0, 0, o)", func() {
			for _, spo := range sample {
				rows += g.MatchCountIDs(0, 0, spo[2])
			}
		}},
		{"MatchIDs(s, 0, o)", func() {
			for _, spo := range sample {
				g.MatchIDs(spo[0], 0, spo[2], count)
			}
		}},
		{"MatchCountIDs(s, 0, o)", func() {
			for _, spo := range sample {
				rows += g.MatchCountIDs(spo[0], 0, spo[2])
			}
		}},
		{"MatchIDs(s, p, 0)", func() {
			for _, spo := range sample {
				g.MatchIDs(spo[0], spo[1], 0, count)
			}
		}},
		{"MatchIDs(s, p, o)", func() {
			for _, spo := range sample {
				g.MatchIDs(spo[0], spo[1], spo[2], count)
			}
		}},
		{"MatchIDs(0, p, 0)", func() {
			for _, spo := range sample {
				g.MatchIDs(0, spo[1], 0, count)
			}
		}},
		{"MatchCountIDs(0, p, 0)", func() {
			for _, spo := range sample {
				rows += g.MatchCountIDs(0, spo[1], 0)
			}
		}},
		{"MatchIDs(0, p, o)", func() {
			for _, spo := range sample {
				g.MatchIDs(0, spo[1], spo[2], count)
			}
		}},
		{"MatchCountIDs(0, p, o)", func() {
			for _, spo := range sample {
				rows += g.MatchCountIDs(0, spo[1], spo[2])
			}
		}},
		{"MatchIDsEach((s, p, 0) × 256)", func() {
			g.MatchIDsEach(subjectBound, func(_ int, _, _, _ rdf.ID) bool { rows++; return true })
		}},
	} {
		if got := testing.AllocsPerRun(10, c.fn); got != 0 {
			t.Errorf("%s allocates %.1f times over %d objects, want 0", c.name, got, len(sample))
		}
	}
	if rows == 0 {
		t.Fatal("the sampled objects matched nothing")
	}
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

// objectSample returns n triples of g, spread evenly over the distinct
// objects in ID order: each object with its first subject and predicate.
func objectSample(g *rdf.Graph, n int) [][3]rdf.ID {
	var objects []rdf.ID
	for id := rdf.ID(1); int(id) <= g.TermCount(); id++ {
		if g.MatchCountIDs(0, 0, id) > 0 {
			objects = append(objects, id)
		}
	}
	out := make([][3]rdf.ID, 0, n)
	for i := range n {
		o := objects[i*len(objects)/n]
		g.MatchIDs(0, 0, o, func(s, p, _ rdf.ID) bool {
			out = append(out, [3]rdf.ID{s, p, o})
			return false
		})
	}
	return out
}

// manyPredicates is a graph of 200 000 triples over 1 000 predicates: 10 000
// subjects with 20 properties each, whose 5 000 values recur under many
// predicates. An object-only pattern there visits a thousand predicates.
func manyPredicates() *rdf.Graph {
	ts := make([]rdf.Triple, 0, 200000)
	for s := range 10000 {
		for k := range 20 {
			ts = append(ts, rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("%ss%d", datagen.ExampleNS, s)),
				P: rdf.NewIRI(fmt.Sprintf("%sp%d", datagen.ExampleNS, (s*7+k*50)%1000)),
				O: rdf.NewInteger(int64((s + k*13) % 5000)),
			})
		}
	}
	g := rdf.NewGraph()
	g.AddAll(ts)
	return g
}

// BenchmarkObjectLookup prices the patterns that bind the object and not the
// predicate — ?s ?p <o> and <s> ?p <o> — through MatchIDs (enumerating every
// match) and MatchCountIDs, over 256 sampled triples of the 198k products
// graph and of a graph with 1 000 predicates; and, next to them, the
// subject-bound patterns <s> <p> ?o and <s> <p> <o>, a subject run the
// directory finds and a search inside it, and the predicate-bound ones the
// planner counts for every constant-predicate pattern, ?s <p> ?o and
// ?s <p> <o>, a predicate run POS's directory finds and a search inside it.
// None of them allocates.
func BenchmarkObjectLookup(b *testing.B) {
	for _, c := range []struct {
		name  string
		graph func() *rdf.Graph
	}{
		{"products-198k", func() *rdf.Graph {
			g := datagen.Products(datagen.ProductsConfig{Laptops: 22400, Companies: 16, Seed: 1})
			rdf.Materialize(g)
			return g
		}},
		{"predicates-1000", manyPredicates},
	} {
		g := c.graph()
		sample := objectSample(g, 256)
		for _, shape := range []struct {
			name  string
			bind  [3]bool // the positions of the sampled triple the pattern binds
			count bool
		}{
			{"match-o", [3]bool{2: true}, false},
			{"count-o", [3]bool{2: true}, true},
			{"match-so", [3]bool{0: true, 2: true}, false},
			{"count-so", [3]bool{0: true, 2: true}, true},
			{"match-sp", [3]bool{0: true, 1: true}, false},
			{"match-spo", [3]bool{true, true, true}, false},
			{"match-p", [3]bool{1: true}, false},
			{"count-p", [3]bool{1: true}, true},
			{"match-po", [3]bool{1: true, 2: true}, false},
			{"count-po", [3]bool{1: true, 2: true}, true},
		} {
			b.Run(c.name+"/"+shape.name, func(b *testing.B) {
				b.ReportAllocs()
				rows := 0
				for i := 0; b.Loop(); i++ {
					var q [3]rdf.ID
					for k, bound := range shape.bind {
						if bound {
							q[k] = sample[i%len(sample)][k]
						}
					}
					if shape.count {
						rows += g.MatchCountIDs(q[0], q[1], q[2])
					} else {
						g.MatchIDs(q[0], q[1], q[2], func(_, _, _ rdf.ID) bool { rows++; return true })
					}
				}
				b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
			})
		}
	}
}
