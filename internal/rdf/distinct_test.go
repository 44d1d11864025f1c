package rdf

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// distinctTriple draws from a few hundred triples, so that writes keep
// opening and emptying the (s, p, ·) and (p, o, ·) runs the counts follow.
func distinctTriple(rng *rand.Rand) Triple {
	var o Term = ex(fmt.Sprintf("s%d", rng.Intn(12))) // objects overlap subjects
	if rng.Intn(3) == 0 {
		o = NewInteger(int64(rng.Intn(6)))
	}
	return Triple{ex(fmt.Sprintf("s%d", rng.Intn(16))), distinctPreds[rng.Intn(len(distinctPreds))], o}
}

var distinctPreds = []Term{ex("p0"), ex("p1"), ex("p2"), ex("p3"), NewIRI(RDFType)}

// checkDistinct holds every predicate's DistinctIDs to a brute-force count
// over Triples(); a predicate with no triple left must read 0, 0.
func checkDistinct(t *testing.T, g *Graph, when string) {
	t.Helper()
	subjects, objects := map[Term]map[Term]bool{}, map[Term]map[Term]bool{}
	for _, tr := range g.Triples() {
		if subjects[tr.P] == nil {
			subjects[tr.P], objects[tr.P] = map[Term]bool{}, map[Term]bool{}
		}
		subjects[tr.P][tr.S], objects[tr.P][tr.O] = true, true
	}
	for _, p := range distinctPreds {
		id, known := g.TermID(p)
		if !known {
			continue
		}
		if s, o := g.DistinctIDs(id); s != len(subjects[p]) || o != len(objects[p]) {
			t.Fatalf("%s: %v has %d subjects and %d objects, counted %d and %d", when, p, s, o, len(subjects[p]), len(objects[p]))
		}
	}
}

// TestDistinctCountsAgainstBruteForce: seeded random Adds, Removes and
// AddAlls — small batches through the delta, batches past maxDelta through
// the bulk path — with merges forced at random delta sizes keep every
// predicate's distinct subjects and objects equal to a count over the
// triples after every step. So do a clone and a snapshot round trip, and
// each goes on keeping them under writes of its own.
func TestDistinctCountsAgainstBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		write := func(g *Graph) string {
			switch op := rng.Intn(64); {
			case op < 32:
				g.Add(distinctTriple(rng))
				return "Add"
			case op < 58:
				g.Remove(distinctTriple(rng))
				return "Remove"
			case op < 61:
				g.AddAll([]Triple{distinctTriple(rng), distinctTriple(rng), distinctTriple(rng)})
				return "AddAll"
			case op < 62:
				batch := make([]Triple, maxDelta+1+rng.Intn(64))
				for i := range batch {
					batch[i] = distinctTriple(rng)
				}
				g.AddAll(batch)
				return "bulk AddAll"
			default:
				g.mu.Lock()
				for ord := range g.ix {
					g.ix[ord].merge()
				}
				g.mu.Unlock()
				return "merge"
			}
		}
		g := NewGraph()
		for i := range 1200 {
			checkDistinct(t, g, fmt.Sprintf("seed %d, op %d (%s)", seed, i, write(g)))
		}
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for name, h := range map[string]*Graph{"clone": g.Clone(), "round trip": back} {
			checkDistinct(t, h, fmt.Sprintf("seed %d, %s", seed, name))
			for i := range 200 {
				checkDistinct(t, h, fmt.Sprintf("seed %d, %s, op %d (%s)", seed, name, i, write(h)))
			}
		}
		checkDistinct(t, g, fmt.Sprintf("seed %d, after its clone changed", seed))
	}
}

// TestDistinctCountsDoNotAllocate: keeping the counts costs a write no
// allocation, and reading them costs none.
func TestDistinctCountsDoNotAllocate(t *testing.T) {
	g := NewGraph()
	for i := range 200 {
		g.Add(Triple{ex(fmt.Sprintf("s%d", i%40)), ex(fmt.Sprintf("p%d", i%3)), NewInteger(int64(i % 7))})
	}
	tr := Triple{ex("s1"), ex("p2"), NewInteger(5)} // its terms are interned, the triple is new
	p, _ := g.TermID(tr.P)
	if g.Has(tr) {
		t.Fatal("the triple is already in the graph")
	}
	if n := testing.AllocsPerRun(100, func() { g.Add(tr); g.Remove(tr) }); n != 0 {
		t.Errorf("an Add and a Remove allocate %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { g.DistinctIDs(p) }); n != 0 {
		t.Errorf("DistinctIDs allocates %v times", n)
	}
}
