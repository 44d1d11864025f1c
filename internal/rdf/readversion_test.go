package rdf

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestReadVersion walks one graph through every kind of write and checks
// what each predicate's read version says after it.
func TestReadVersion(t *testing.T) {
	g := testGraph() // 9 adds: manufacturer last at 5, price at 6, rdf:type at 9
	rv := func(ps ...Term) uint64 { return g.ReadVersion(ReadSet{Preds: ps}) }
	typ := NewIRI(RDFType)
	check := func(when string, want map[Term]uint64) {
		t.Helper()
		for p, v := range want {
			if got := rv(p); got != v {
				t.Errorf("%s: ReadVersion(%s) = %d, want %d", when, p, got, v)
			}
		}
		if got := g.ReadVersion(ReadSet{All: true}); got != g.Version() {
			t.Errorf("%s: ReadVersion(all) = %d, want Version() %d", when, got, g.Version())
		}
	}
	check("loaded", map[Term]uint64{ex("manufacturer"): 5, ex("price"): 6, typ: 9, ex("unseen"): 0})
	if got := rv(); got != 0 {
		t.Errorf("empty read set: %d, want 0", got)
	}
	if got := rv(ex("manufacturer"), ex("price"), ex("unseen")); got != 6 {
		t.Errorf("a set reads its newest predicate: %d, want 6", got)
	}

	g.Add(Triple{ex("laptop1"), ex("color"), NewString("red")})
	check("a fresh predicate", map[Term]uint64{ex("manufacturer"): 5, ex("price"): 6, typ: 9, ex("color"): 10})
	g.Add(Triple{ex("laptop1"), ex("color"), NewString("red")})
	g.Remove(Triple{ex("laptop9"), ex("price"), NewInteger(1)})
	check("no-op writes", map[Term]uint64{ex("color"): 10, ex("price"): 6})
	g.Remove(Triple{ex("laptop1"), ex("price"), NewInteger(900)})
	check("a removal", map[Term]uint64{ex("price"): 11, ex("manufacturer"): 5})

	c := g.Clone()
	g.SetVersion(100)
	check("SetVersion", map[Term]uint64{ex("manufacturer"): 100, ex("price"): 100, ex("unseen"): 100})
	g.Add(Triple{ex("laptop1"), ex("price"), NewInteger(901)})
	check("after SetVersion", map[Term]uint64{ex("price"): 101, ex("manufacturer"): 100})
	if got := c.ReadVersion(ReadSet{Preds: []Term{ex("price")}}); got != 11 {
		t.Errorf("the clone took the original's later writes: price %d, want 11", got)
	}
}

// TestReadVersionMatchesAModel drives Add, Remove, the bulk AddAll path, a
// snapshot round trip and Clone with random triples over a few predicates,
// and after every step compares each predicate's read version with the last
// version a model saw that predicate change at.
func TestReadVersionMatchesAModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	preds := []Term{ex("p0"), ex("p1"), ex("p2"), ex("p3"), ex("p4")}
	random := func() Triple {
		return Triple{ex("s" + string(rune('a'+rng.Intn(20)))), preds[rng.Intn(len(preds)-1)], NewInteger(int64(rng.Intn(300)))}
	}
	g := NewGraph()
	last := map[Term]uint64{}
	var floor uint64
	bulks := 0
	for step := 0; step < 200; step++ {
		switch r := rng.Intn(20); {
		case r < 11:
			tr := random()
			if g.Add(tr) {
				last[tr.P] = g.Version()
			}
		case r < 17:
			tr := random()
			if g.Remove(tr) {
				last[tr.P] = g.Version()
			}
		case r < 18:
			// Past maxDelta the batch takes load: every predicate it adds is
			// noted at the batch's last version.
			bulks++
			batch := make([]Triple, maxDelta+1+rng.Intn(200))
			for i := range batch {
				batch[i] = Triple{ex("bulk" + string(rune('a'+rng.Intn(26)))), preds[rng.Intn(2)], NewInteger(int64(step*10000 + i))}
			}
			added := map[Term]bool{}
			for _, tr := range batch {
				added[tr.P] = added[tr.P] || !g.Has(tr)
			}
			if g.AddAll(batch) > 0 {
				for p := range added {
					if added[p] {
						last[p] = g.Version()
					}
				}
			}
		case r < 19:
			var buf bytes.Buffer
			if err := g.WriteBinary(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := ReadBinary(&buf)
			if err != nil {
				t.Fatal(err)
			}
			back.SetVersion(g.Version()) // what the durable store does after a restore
			g, floor = back, g.Version()
		default:
			g = g.Clone()
		}
		for _, p := range preds {
			want := max(floor, last[p])
			if got := g.ReadVersion(ReadSet{Preds: []Term{p}}); got != want {
				t.Fatalf("step %d: ReadVersion(%s) = %d, want %d", step, p, got, want)
			}
		}
	}
	if bulks == 0 {
		t.Error("no step took the bulk load path")
	}
}
