package rdf

import "runtime"

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
func (g *Graph) TermOf(id ID) (t Term) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.dict.termInto(&t, id)
	return t
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
			g.dict.termInto(&out[i], id)
		}
	}
	return out
}

// TermView returns the terms of every ID the dictionary has issued so far,
// for a caller that decodes many of them (a result table being sorted or
// encoded). It takes the read lock once, to copy three slice headers; the
// view then decodes without it, so no write waits on the caller. The
// dictionary only appends, so an issued ID's term never changes under it.
func (g *Graph) TermView() TermView {
	g.mu.RLock()
	defer g.mu.RUnlock()
	d := g.dict
	return TermView{values: d.values, shapeOf: d.shapeOf, shapes: d.shapes}
}

// TermView decodes the IDs a dictionary had issued when it was taken
// (Graph.TermView).
type TermView struct {
	values  []string
	shapeOf []uint32
	shapes  []Term
}

// Term returns the term for an ID issued before the view was taken.
func (v TermView) Term(id ID) Term {
	s := &v.shapes[v.shapeOf[id-1]]
	return Term{Kind: s.Kind, Value: v.values[id-1], Datatype: s.Datatype, Lang: s.Lang}
}

// Shape returns the kind, datatype and language of id's term, with an empty
// Value: what IsResource, IsNumeric and IsTemporal read, without the
// lexical form.
func (v TermView) Shape(id ID) Term { return v.shapes[v.shapeOf[id-1]] }

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
// pending writes merged in. The graph keeps no OSP index: (o) and (s, o)
// are answered from SPO and POS in OSP order (matchObjectLocked). The order
// is a function of the graph's content and its dictionary alone: the
// history of insertions and removals, a snapshot round-trip or a restart do
// not change it. The SPARQL engine's answers are byte-identical across runs,
// restarts and concurrent queries because of it.
//
// fn runs while the graph read lock is held: it must not call other Graph
// methods (collect IDs and materialize after the scan instead).
func (g *Graph) MatchIDs(s, p, o ID, fn func(s, p, o ID) bool) {
	g.scans.Add(1)
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.matchIDsLocked(s, p, o, fn)
}

// MatchIDsEach is MatchIDs on each pattern of pats in turn — fn learns which
// by its index i — under one read lock: a caller with a block of patterns to
// probe (a join step's input rows) takes the lock once for the block, not
// once per pattern. Iteration stops once fn returns false. Each pattern
// probed counts as one scan, as a MatchIDs call does. fn runs under the read
// lock, as MatchIDs' does.
func (g *Graph) MatchIDsEach(pats [][3]ID, fn func(i int, s, p, o ID) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	// Read both ends of every subject-bound pattern's run before searching
	// any of them: the reads do not depend on one another, so the cache
	// misses of runs met in no particular subject order overlap, where the
	// searches would meet them one at a time. KeepAlive keeps the compiler
	// from dropping reads whose values nothing else uses.
	bySubject := &g.ix[spo]
	var ends uint64
	for _, q := range pats {
		if lo, hi := bySubject.dir.run(q[0]); lo < hi {
			ends += bySubject.base[lo] + bySubject.base[hi-1]
		}
	}
	runtime.KeepAlive(ends)
	i, more := 0, true
	for ; i < len(pats) && more; i++ {
		q := &pats[i]
		g.matchIDsLocked(q[0], q[1], q[2], func(s, p, o ID) bool {
			more = fn(i, s, p, o)
			return more
		})
	}
	g.scans.Add(uint64(i))
}

// accessPath picks the permutation in which the pattern's bound positions
// form a prefix, and returns the pattern as a key of it with the prefix
// length. For osp, the shapes (o) and (s, o), that is the order they
// enumerate in, not an index.
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
	if ord == osp {
		g.matchObjectLocked(s, o, fn)
		return
	}
	g.ix[ord].scan(ord, q, n, fn)
}

// matchObjectLocked enumerates the triples with object o, and subject s
// unless s is 0, in ascending (s, p): the OSP order, from SPO and POS. The
// subject's SPO run holds them in ascending p already. Without a subject,
// each predicate's POS run of (p, o) ascends in s, and the runs are merged
// on (s, p), picking the least head of the few non-empty ones each step.
func (g *Graph) matchObjectLocked(s, o ID, fn func(s, p, o ID) bool) {
	if s != 0 {
		g.ix[spo].scan(spo, key{s}, 1, func(s, p, x ID) bool { return x != o || fn(s, p, o) })
		return
	}
	type head struct {
		c cursor
		k key // the next key of c's run, (p, o, s)
	}
	ix := &g.ix[pos]
	var buf [16]head
	heads := buf[:0]
	ix.runsOf(o, func(c cursor) {
		if k, ok := ix.next(&c); ok {
			heads = append(heads, head{c, k})
		}
	})
	for len(heads) > 0 {
		m := 0
		for i, h := range heads[1:] {
			if least := heads[m].k; h.k[2] < least[2] || h.k[2] == least[2] && h.k[0] < least[0] {
				m = i + 1
			}
		}
		if k := &heads[m].k; !fn(pos.triple(k[0], k[1], k[2])) {
			return
		}
		var ok bool
		if heads[m].k, ok = ix.next(&heads[m].c); !ok {
			heads[m] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
	}
}

// MatchCountIDs returns the number of triples matching the ID pattern
// (0 = wildcard) without materializing them: two searches in the pattern's
// permutation. An object-bound pattern costs more: (s, o) walks the
// subject's SPO run, (o) searches each predicate's POS run. It is the
// cardinality estimator the SPARQL engine's join ordering and strategy
// choice run on.
func (g *Graph) MatchCountIDs(s, p, o ID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.matchCountIDsLocked(s, p, o)
}

func (g *Graph) matchCountIDsLocked(s, p, o ID) int {
	ord, q, n := accessPath(s, p, o)
	if ord != osp {
		return g.ix[ord].count(q, n)
	}
	n = 0
	if s != 0 {
		g.matchObjectLocked(s, o, func(_, _, _ ID) bool { n++; return true })
		return n
	}
	ix := &g.ix[pos] // the sum of the predicates' counts
	ix.runsOf(o, func(c cursor) { n += ix.len(c) })
	return n
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

// ReadSet names what an answer read of a graph: the predicates of the
// triples its patterns can match, or every predicate (All).
type ReadSet struct {
	All   bool
	Preds []Term
}

// ReadVersion returns the version of what rs reads: the last version that
// changed a triple of one of its predicates, at least the last SetVersion,
// and Version() when rs reads all. A predicate the dictionary has never
// seen has no triple to change. An answer computed at version v is the one
// the graph gives now iff ReadVersion of its read set is at most v.
func (g *Graph) ReadVersion(rs ReadSet) uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if rs.All {
		return g.version
	}
	v := g.floor
	for _, p := range rs.Preds {
		if id, ok := g.dict.Lookup(p); ok {
			v = max(v, g.changed[id])
		}
	}
	return v
}
