package rdf

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// TestMatchIDsAgreesWithMatch: every ID pattern shape must enumerate the
// same triples as the term-space Match.
func TestMatchIDsAgreesWithMatch(t *testing.T) {
	g := testGraph()
	termOrAny := func(id ID) Term {
		if id == 0 {
			return Any
		}
		return g.TermOf(id)
	}
	mustID := func(term Term) ID {
		id, ok := g.TermID(term)
		if !ok {
			t.Fatalf("TermID(%v) unknown", term)
		}
		return id
	}
	s, p, o := mustID(ex("laptop1")), mustID(ex("price")), mustID(ex("dell"))
	for _, ids := range [][3]ID{
		{0, 0, 0}, {s, 0, 0}, {0, p, 0}, {0, 0, o},
		{s, p, 0}, {0, mustID(ex("manufacturer")), o}, {s, 0, o},
		{s, mustID(ex("manufacturer")), o},
		{9999, 0, 0}, // valid-shaped but unused subject position
	} {
		if ids[0] == 9999 {
			continue
		}
		got := map[Triple]bool{}
		g.MatchIDs(ids[0], ids[1], ids[2], func(s, p, o ID) bool {
			got[Triple{g.TermOf(s), g.TermOf(p), g.TermOf(o)}] = true
			return true
		})
		want := map[Triple]bool{}
		g.Match(termOrAny(ids[0]), termOrAny(ids[1]), termOrAny(ids[2]), func(tr Triple) bool {
			want[tr] = true
			return true
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("MatchIDs(%v): got %d triples, want %d", ids, len(got), len(want))
		}
		if n := g.MatchCountIDs(ids[0], ids[1], ids[2]); n != len(want) {
			t.Errorf("MatchCountIDs(%v) = %d, want %d", ids, n, len(want))
		}
	}
}

// TestMatchIDsDeterministicOrder: repeated enumeration of the same pattern
// must visit triples in the same order (the parallel evaluator's contract).
func TestMatchIDsDeterministicOrder(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 200; i++ {
		g.Add(Triple{ex(fmt.Sprintf("s%d", i%20)), ex(fmt.Sprintf("p%d", i%5)), NewInteger(int64(i))})
	}
	for _, ids := range [][3]ID{{0, 0, 0}, {1, 0, 0}, {0, 2, 0}, {0, 0, 3}} {
		var first [][3]ID
		g.MatchIDs(ids[0], ids[1], ids[2], func(s, p, o ID) bool {
			first = append(first, [3]ID{s, p, o})
			return true
		})
		for rep := 0; rep < 5; rep++ {
			var again [][3]ID
			g.MatchIDs(ids[0], ids[1], ids[2], func(s, p, o ID) bool {
				again = append(again, [3]ID{s, p, o})
				return true
			})
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("pattern %v: enumeration order changed between runs", ids)
			}
		}
	}
}

func TestMatchIDsEarlyExit(t *testing.T) {
	g := testGraph()
	n := 0
	g.MatchIDs(0, 0, 0, func(s, p, o ID) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early exit visited %d triples, want 3", n)
	}
}

func TestTermIDRoundTrip(t *testing.T) {
	g := testGraph()
	id, ok := g.TermID(ex("laptop1"))
	if !ok || id == 0 {
		t.Fatalf("TermID(laptop1) = %d, %v", id, ok)
	}
	if got := g.TermOf(id); got != ex("laptop1") {
		t.Errorf("TermOf(%d) = %v", id, got)
	}
	if _, ok := g.TermID(ex("never-seen")); ok {
		t.Error("TermID reported an unknown term as known")
	}
}

// TestTermViewDuringWrites: a view decodes every ID issued before it was
// taken as TermOf does, while writes grow the dictionary past the capacity
// of the columns the view read — under -race, with no lock held.
func TestTermViewDuringWrites(t *testing.T) {
	g := testGraph()
	n := g.dict.Len()
	want := make([]Term, n+1)
	for id := 1; id <= n; id++ {
		want[id] = g.TermOf(ID(id))
	}
	v := g.TermView()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			g.Add(Triple{ex(fmt.Sprint("w", i)), ex("p"), NewLangString(fmt.Sprint(i), fmt.Sprint("x-", i%7))})
		}
	}()
	for pass := 0; pass < 50; pass++ {
		for id := 1; id <= n; id++ {
			if got := v.Term(ID(id)); got != want[id] {
				t.Fatalf("pass %d: view decodes %d as %v, want %v", pass, id, got, want[id])
			}
		}
	}
	<-done
	if g.dict.Len() <= 2*n {
		t.Fatalf("the writes grew the dictionary from %d to only %d terms", n, g.dict.Len())
	}
}

// TestObjectPatternsAcrossManyPredicates holds (o) and (s, o) to a filtered
// full scan in OSP order, on a graph whose objects recur under up to 50
// predicates — more runs than the merge's stack buffer holds — with
// additions and tombstones pending in the delta.
func TestObjectPatternsAcrossManyPredicates(t *testing.T) {
	g := NewGraph()
	var ts []Triple
	for s := range 60 {
		for k := range 40 {
			ts = append(ts, Triple{ex(fmt.Sprintf("s%d", s)), ex(fmt.Sprintf("p%d", (s+k*3)%50)), ex(fmt.Sprintf("o%d", (s*k)%7))})
		}
	}
	g.AddAll(ts)
	for i := range 300 {
		g.Remove(ts[i*7%len(ts)])
		g.Add(Triple{ex(fmt.Sprintf("s%d", 55+i%9)), ex(fmt.Sprintf("p%d", i%50)), ex(fmt.Sprintf("o%d", i%7))})
	}
	if len(g.ix[spo].delta) == 0 || !slices.Contains(g.ix[pos].dead, true) {
		t.Fatal("no additions and tombstones pending")
	}
	var all []key
	g.MatchIDs(0, 0, 0, func(s, p, o ID) bool {
		all = append(all, osp.key(s, p, o))
		return true
	})
	slices.SortFunc(all, key.compare)
	for i := range 7 {
		o, _ := g.TermID(ex(fmt.Sprintf("o%d", i)))
		for _, s := range []ID{0, all[i*len(all)/7][1], all[len(all)-1-i][1]} {
			var want, got []key
			for _, k := range all {
				if k[0] == o && (s == 0 || k[1] == s) {
					want = append(want, k)
				}
			}
			g.MatchIDs(s, 0, o, func(s, p, o ID) bool {
				got = append(got, osp.key(s, p, o))
				return true
			})
			if !slices.Equal(got, want) {
				t.Fatalf("MatchIDs(%d, 0, %d):\ngot  %v\nwant %v", s, o, got, want)
			}
			if n := g.MatchCountIDs(s, 0, o); n != len(want) {
				t.Fatalf("MatchCountIDs(%d, 0, %d) = %d, want %d", s, o, n, len(want))
			}
		}
	}
}

func benchGraph(n int) *Graph {
	g := NewGraph()
	for j := 0; j < n; j++ {
		g.Add(Triple{
			ex(fmt.Sprintf("s%d", j%1000)),
			ex(fmt.Sprintf("p%d", j%10)),
			ex(fmt.Sprintf("o%d", j%100)),
		})
	}
	return g
}

// BenchmarkMatch vs BenchmarkMatchIDs: the cost of term materialization on
// the enumeration hot path.
func BenchmarkMatch(b *testing.B) {
	g := benchGraph(10000)
	p := ex("p3")
	b.ResetTimer()
	for b.Loop() {
		n := 0
		g.Match(Any, p, Any, func(Triple) bool { n++; return true })
	}
}

func BenchmarkMatchIDs(b *testing.B) {
	g := benchGraph(10000)
	pid, _ := g.TermID(ex("p3"))
	b.ResetTimer()
	for b.Loop() {
		n := 0
		g.MatchIDs(0, pid, 0, func(s, p, o ID) bool { n++; return true })
	}
}

func BenchmarkObjects(b *testing.B) {
	g := benchGraph(10000)
	s, p := ex("s3"), ex("p3")
	b.ResetTimer()
	for b.Loop() {
		g.Objects(s, p)
	}
}
