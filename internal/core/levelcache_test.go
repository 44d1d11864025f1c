package core

import (
	"strings"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/rdf"
)

// TestLevelCacheEvictionAccounting shrinks the per-level answer budget and
// runs more distinct analytics than fit: the LRU must evict under byte
// pressure (feeding the shared rdfa_cache_evictions_total counter), stay
// within budget, and still serve the most recent answer as a hit.
func TestLevelCacheEvictionAccounting(t *testing.T) {
	old := levelCacheBytes
	levelCacheBytes = 600 // a couple of small Answer Frames at most
	defer func() { levelCacheBytes = old }()

	s := productSession(t)
	s.ClickClass(pe("Laptop"))

	ops := []hifun.AggOp{hifun.OpCount, hifun.OpSum, hifun.OpAvg, hifun.OpMin, hifun.OpMax}
	evicted0 := answerEvicted.Value()
	for _, op := range ops {
		s.ClearAnalytics()
		s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: pe("price")}}}, hifun.Operation{Op: op})
		if _, err := s.RunAnalytics(); err != nil {
			t.Fatal(err)
		}
	}
	l := s.top()
	if l.cache == nil {
		t.Fatal("level cache never built")
	}
	if d := answerEvicted.Value() - evicted0; d == 0 {
		t.Errorf("no evictions after %d distinct answers under a %dB budget (cache holds %dB in %d entries)",
			len(ops), levelCacheBytes, l.cache.Bytes(), l.cache.Len())
	}
	if l.cache.Bytes() > levelCacheBytes {
		t.Errorf("cache bytes %d exceed budget %d", l.cache.Bytes(), levelCacheBytes)
	}
	if got, want := l.cache.Len(), len(ops); got >= want {
		t.Errorf("cache holds %d entries, want fewer than the %d runs", got, want)
	}

	// The most recent answer survived and is a hit.
	hits0 := answerHits.Value()
	if _, err := s.RunAnalytics(); err != nil {
		t.Fatal(err)
	}
	if answerHits.Value() == hits0 {
		t.Error("most recent answer was not served from cache")
	}

	// A write to the graph is the invalidation: the next run drops the
	// memo (nil is a valid empty cache) and recomputes.
	g := s.Model().G
	g.Add(rdf.Triple{S: pe("laptop1"), P: pe("price"), O: rdf.NewInteger(999999)})
	misses0 := answerMisses.Value()
	ans, err := s.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	if answerMisses.Value() == misses0 {
		t.Error("run after a graph write did not recompute")
	}
	if got := ans.Rows[0][0]; got != rdf.NewInteger(999999) {
		t.Errorf("MAX(price) after inserting a price of 999999 = %v", got)
	}
	if n := s.top().cache.Len(); n != 1 {
		t.Errorf("memo holds %d entries after the write, want only the recomputed one", n)
	}
}

// countsByFirstColumn runs the session's analytics and sums the last
// column per local name of the first.
func countsByFirstColumn(t *testing.T, s *Session) map[string]int64 {
	t.Helper()
	ans, err := s.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for _, row := range ans.Rows {
		n, _ := row[len(row)-1].Int()
		out[row[0].LocalName()] += n
	}
	return out
}

// TestSecondSessionSeesMutationThroughFirst: two sessions over one graph.
// A transform applied through one, or a plain graph.Add, is a write the
// other is never told about; neither its memoized answers nor its cubes
// may outlive it.
func TestSecondSessionSeesMutationThroughFirst(t *testing.T) {
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	a, b := NewSession(g, datagen.ExampleNS), NewSession(g, datagen.ExampleNS)

	// b memoizes "companies by founder count" before the feature exists.
	a.ClickClass(pe("Company"))
	b.ClickClass(pe("Company"))
	b.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("nFounders")}}})
	b.ClickAggregate(MeasureSpec{}, hifun.Operation{Op: hifun.OpCount})
	if got := countsByFirstColumn(t, b); len(got) != 0 {
		t.Fatalf("grouping by a feature nobody created yet = %v", got)
	}
	if n, err := a.ApplyTransform(hifun.FeatureSpec{Op: hifun.FCOCount, P: pe("founder"), Feature: pe("nFounders")}); err != nil || n == 0 {
		t.Fatalf("transform through a: %d, %v", n, err)
	}
	if got := countsByFirstColumn(t, b); len(got) == 0 {
		t.Error("b still answers from before a's transform")
	}

	// b memoizes laptops by (manufacturer, USB ports) — also kept as a cube —
	// and a DELL laptop then arrives through the graph alone.
	b.Reset()
	b.ClickClass(pe("Laptop"))
	b.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("manufacturer")}}})
	b.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("USBPorts")}}})
	b.ClickAggregate(MeasureSpec{}, hifun.Operation{Op: hifun.OpCount})
	dell := countsByFirstColumn(t, b)["DELL"]
	nl := pe("laptopNew")
	g.Add(rdf.Triple{S: nl, P: rdf.NewIRI(rdf.RDFType), O: pe("Laptop")})
	g.Add(rdf.Triple{S: nl, P: pe("manufacturer"), O: pe("DELL")})
	g.Add(rdf.Triple{S: nl, P: pe("USBPorts"), O: rdf.NewInteger(2)})
	b.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("USBPorts")}}}) // coarsen: roll-up territory
	ans, err := b.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ans.SPARQL, "materialized cube") {
		t.Error("coarse grouping rolled up from a cube cut before the graph moved")
	}
	if got := countsByFirstColumn(t, b)["DELL"]; got != dell+1 {
		t.Errorf("coarse grouping after graph.Add: DELL = %d, want %d", got, dell+1)
	}
	b.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("USBPorts")}}}) // back to the memoized fine grouping
	if got := countsByFirstColumn(t, b)["DELL"]; got != dell+1 {
		t.Errorf("fine grouping after graph.Add: DELL = %d, want %d (stale memo)", got, dell+1)
	}
}
