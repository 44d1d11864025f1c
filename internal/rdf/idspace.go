package rdf

// ID-space read API. The SPARQL engine joins basic graph patterns on
// dictionary IDs instead of materialized terms: equality is one integer
// compare, no Term structs are built for intermediate rows, and pattern
// cardinalities are two searches in a sorted permutation. Terms are
// materialized (TermOf) only for rows that survive the join.

// TermID returns the dictionary ID of t, or (0, false) when t has never
// been interned into this graph. The zero ID doubles as the wildcard for
// MatchIDs and MatchCountIDs.
func (g *Graph) TermID(t Term) (ID, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.dict.Lookup(t)
}

// TermOf materializes the term for a valid ID. It panics on an ID the
// dictionary never issued (always a programming error).
func (g *Graph) TermOf(id ID) Term {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.dict.Term(id)
}

// TermsOf materializes the terms for IDs under one lock acquisition. An ID
// the dictionary has not issued — 0 included — yields the zero Term, so a
// caller can decode a table holding unbound cells and IDs of its own.
func (g *Graph) TermsOf(ids []ID) []Term {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]Term, len(ids))
	for i, id := range ids {
		if id != 0 && int(id) <= g.dict.Len() {
			out[i] = g.dict.Term(id)
		}
	}
	return out
}

// SubjectIDs returns the ID of every term in subject position, ascending.
func (g *Graph) SubjectIDs() []ID {
	g.scans.Add(1)
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []ID
	g.ix[spo].distinct(key{}, 0, func(s ID) { out = append(out, s) })
	return out
}

// MatchIDs calls fn for every triple matching the ID pattern; an ID of 0 in
// any position acts as a wildcard. Iteration stops early when fn returns
// false.
//
// Enumeration order is the ascending ID order of the permutation that has
// the bound positions as a prefix — SPO for (s), (s, p), (s, p, o) and the
// all-wildcard scan, POS for (p) and (p, o), OSP for (o) and (s, o) — with
// pending writes merged in. It is a function of the graph's content and its
// dictionary alone: the history of insertions and removals, a snapshot
// round-trip or a restart do not change it. The SPARQL engine's answers are
// byte-identical across runs, restarts and concurrent queries because of it.
//
// fn runs while the graph read lock is held: it must not call other Graph
// methods (collect IDs and materialize after the scan instead).
func (g *Graph) MatchIDs(s, p, o ID, fn func(s, p, o ID) bool) {
	g.scans.Add(1)
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.matchIDsLocked(s, p, o, fn)
}

// accessPath picks the permutation in which the pattern's bound positions
// form a prefix, and returns the pattern as a key of it with the prefix
// length.
func accessPath(s, p, o ID) (ord order, q key, n int) {
	switch {
	case s != 0 && (p != 0 || o == 0):
		ord = spo
	case p != 0:
		ord = pos
	case o != 0:
		ord = osp
	}
	q = ord.key(s, p, o)
	for n < 3 && q[n] != 0 {
		n++
	}
	return ord, q, n
}

func (g *Graph) matchIDsLocked(s, p, o ID, fn func(s, p, o ID) bool) {
	ord, q, n := accessPath(s, p, o)
	g.ix[ord].scan(ord, q, n, fn)
}

// MatchCountIDs returns the number of triples matching the ID pattern
// (0 = wildcard) without materializing them: two searches in the pattern's
// permutation. It is the cardinality estimator the SPARQL engine's join
// ordering and strategy choice run on.
func (g *Graph) MatchCountIDs(s, p, o ID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.matchCountIDsLocked(s, p, o)
}

func (g *Graph) matchCountIDsLocked(s, p, o ID) int {
	ord, q, n := accessPath(s, p, o)
	return g.ix[ord].count(q, n)
}

// CardCacheStats reports zeros: counts are two searches now and the
// cardinality cache is gone. Its one caller is benchmark/trace.go's
// rdf.cardcache_hit_ratio probe; it goes with that probe.
func (g *Graph) CardCacheStats() (size int, hits, misses uint64) { return 0, 0, 0 }

// Version returns the graph's mutation counter: it moves on every Add and
// Remove, and callers can use it to validate their own derived caches.
func (g *Graph) Version() uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.version
}
