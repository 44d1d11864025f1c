package rdf

import (
	"fmt"
	"testing"
	"testing/quick"
)

func ex(n string) Term { return NewIRI("http://ex.org/" + n) }

func testGraph() *Graph {
	g := NewGraph()
	g.Add(Triple{ex("laptop1"), ex("manufacturer"), ex("dell")})
	g.Add(Triple{ex("laptop1"), ex("price"), NewInteger(900)})
	g.Add(Triple{ex("laptop2"), ex("manufacturer"), ex("dell")})
	g.Add(Triple{ex("laptop2"), ex("price"), NewInteger(1000)})
	g.Add(Triple{ex("laptop3"), ex("manufacturer"), ex("lenovo")})
	g.Add(Triple{ex("laptop3"), ex("price"), NewInteger(820)})
	g.Add(Triple{ex("laptop1"), NewIRI(RDFType), ex("Laptop")})
	g.Add(Triple{ex("laptop2"), NewIRI(RDFType), ex("Laptop")})
	g.Add(Triple{ex("laptop3"), NewIRI(RDFType), ex("Laptop")})
	return g
}

func TestAddDeduplicates(t *testing.T) {
	g := NewGraph()
	tr := Triple{ex("s"), ex("p"), ex("o")}
	if !g.Add(tr) {
		t.Fatal("first Add must report new")
	}
	if g.Add(tr) {
		t.Fatal("second Add must report duplicate")
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
}

func TestMatchPatterns(t *testing.T) {
	g := testGraph()
	count := func(s, p, o Term) int {
		n := 0
		g.Match(s, p, o, func(Triple) bool { n++; return true })
		return n
	}
	cases := []struct {
		s, p, o Term
		want    int
	}{
		{Any, Any, Any, 9},
		{ex("laptop1"), Any, Any, 3},
		{Any, ex("price"), Any, 3},
		{Any, Any, ex("dell"), 2},
		{ex("laptop1"), ex("price"), Any, 1},
		{ex("laptop1"), Any, ex("dell"), 1},
		{Any, ex("manufacturer"), ex("dell"), 2},
		{ex("laptop1"), ex("manufacturer"), ex("dell"), 1},
		{ex("laptop1"), ex("manufacturer"), ex("lenovo"), 0},
		{ex("nonexistent"), Any, Any, 0},
		{Any, ex("nonexistent"), Any, 0},
	}
	for _, c := range cases {
		if got := count(c.s, c.p, c.o); got != c.want {
			t.Errorf("Match(%v %v %v) matched %d, want %d", c.s, c.p, c.o, got, c.want)
		}
	}
}

func TestMatchCountAgreesWithMatch(t *testing.T) {
	g := testGraph()
	patterns := []Term{Any, ex("laptop1"), ex("price"), ex("dell"), ex("nope")}
	for _, s := range patterns {
		for _, p := range patterns {
			for _, o := range patterns {
				n := 0
				g.Match(s, p, o, func(Triple) bool { n++; return true })
				if got := g.MatchCount(s, p, o); got != n {
					t.Errorf("MatchCount(%v %v %v) = %d, Match found %d", s, p, o, got, n)
				}
			}
		}
	}
}

func TestMatchEarlyExit(t *testing.T) {
	g := testGraph()
	n := 0
	g.Match(Any, Any, Any, func(Triple) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early exit: saw %d triples, want 3", n)
	}
}

func TestRemove(t *testing.T) {
	g := testGraph()
	tr := Triple{ex("laptop1"), ex("price"), NewInteger(900)}
	if !g.Remove(tr) {
		t.Fatal("Remove must report success for present triple")
	}
	if g.Remove(tr) {
		t.Fatal("Remove must report failure for absent triple")
	}
	if g.Has(tr) {
		t.Fatal("triple still present after Remove")
	}
	if g.MatchCount(Any, ex("price"), Any) != 2 {
		t.Fatal("price index not updated after Remove")
	}
	// Re-adding works.
	if !g.Add(tr) {
		t.Fatal("re-Add after Remove must succeed")
	}
}

func TestObjectsSubjects(t *testing.T) {
	g := testGraph()
	objs := g.Objects(ex("laptop1"), ex("manufacturer"))
	if len(objs) != 1 || objs[0] != ex("dell") {
		t.Errorf("Objects = %v", objs)
	}
	subs := g.Subjects(ex("manufacturer"), ex("dell"))
	if len(subs) != 2 {
		t.Errorf("Subjects = %v", subs)
	}
	if o := g.Object(ex("laptop3"), ex("price")); o != NewInteger(820) {
		t.Errorf("Object = %v", o)
	}
	if o := g.Object(ex("laptop3"), ex("missing")); !o.IsZero() {
		t.Errorf("Object of missing predicate = %v, want zero", o)
	}
}

func TestPredicates(t *testing.T) {
	g := testGraph()
	preds := g.Predicates()
	if len(preds) != 3 {
		t.Fatalf("Predicates = %v", preds)
	}
	if g.PredicateCount(ex("price")) != 3 {
		t.Errorf("PredicateCount(price) = %d", g.PredicateCount(ex("price")))
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g := testGraph()
	c := g.Clone()
	if c.Len() != g.Len() {
		t.Fatalf("clone Len = %d, want %d", c.Len(), g.Len())
	}
	c.Add(Triple{ex("new"), ex("p"), ex("o")})
	if g.Has(Triple{ex("new"), ex("p"), ex("o")}) {
		t.Fatal("mutation of clone leaked into original")
	}
}

func TestStats(t *testing.T) {
	g := testGraph()
	st := g.Stats()
	if st.Triples != 9 {
		t.Errorf("Stats.Triples = %d", st.Triples)
	}
	if st.Classes != 1 {
		t.Errorf("Stats.Classes = %d, want 1", st.Classes)
	}
	if st.Literals != 3 {
		t.Errorf("Stats.Literals = %d, want 3", st.Literals)
	}
	if st.Predicates != 3 {
		t.Errorf("Stats.Predicates = %d, want 3", st.Predicates)
	}
}

func TestTriplesSortedDeterministic(t *testing.T) {
	g := testGraph()
	a := g.Triples()
	b := g.Triples()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Triples() not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].Less(a[i-1]) {
			t.Fatalf("Triples() not sorted at %d", i)
		}
	}
}

func TestDictInternStable(t *testing.T) {
	d := NewDict()
	a := d.Intern(ex("a"))
	b := d.Intern(ex("b"))
	if a == b {
		t.Fatal("distinct terms must get distinct IDs")
	}
	if d.Intern(ex("a")) != a {
		t.Fatal("re-interning must return the same ID")
	}
	if d.Term(a) != ex("a") {
		t.Fatal("Term(ID) roundtrip failed")
	}
	if _, ok := d.Lookup(ex("c")); ok {
		t.Fatal("Lookup of never-interned term must fail")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
}

// Property: for any set of triples, graph Add/Len/Has behave like a set.
func TestGraphSetSemanticsQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		g := NewGraph()
		set := map[Triple]struct{}{}
		for _, b := range raw {
			tr := Triple{
				ex(fmt.Sprintf("s%d", b%5)),
				ex(fmt.Sprintf("p%d", (b>>2)%3)),
				ex(fmt.Sprintf("o%d", (b>>4)%4)),
			}
			_, dup := set[tr]
			set[tr] = struct{}{}
			if g.Add(tr) == dup {
				return false // Add's "new" report disagreed with the model
			}
		}
		if g.Len() != len(set) {
			return false
		}
		for tr := range set {
			if !g.Has(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Remove after Add restores absence, and indexes stay consistent.
func TestGraphAddRemoveQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		g := NewGraph()
		var ts []Triple
		for _, b := range raw {
			tr := Triple{
				ex(fmt.Sprintf("s%d", b%4)),
				ex(fmt.Sprintf("p%d", (b>>2)%2)),
				ex(fmt.Sprintf("o%d", (b>>4)%4)),
			}
			g.Add(tr)
			ts = append(ts, tr)
		}
		for _, tr := range ts {
			g.Remove(tr)
		}
		if g.Len() != 0 {
			return false
		}
		n := 0
		g.Match(Any, Any, Any, func(Triple) bool { n++; return true })
		return n == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGraphAdd(b *testing.B) {
	for i := 0; b.Loop(); i++ {
		g := NewGraph()
		for j := 0; j < 1000; j++ {
			g.Add(Triple{
				ex(fmt.Sprintf("s%d", j%100)),
				ex(fmt.Sprintf("p%d", j%10)),
				NewInteger(int64(j)),
			})
		}
	}
}

func BenchmarkGraphMatchPO(b *testing.B) {
	g := NewGraph()
	for j := 0; j < 10000; j++ {
		g.Add(Triple{
			ex(fmt.Sprintf("s%d", j)),
			ex(fmt.Sprintf("p%d", j%10)),
			ex(fmt.Sprintf("o%d", j%100)),
		})
	}
	b.ResetTimer()
	for b.Loop() {
		n := 0
		g.Match(Any, ex("p3"), ex("o13"), func(Triple) bool { n++; return true })
	}
}
