package rdf

import (
	"slices"
	"sync"
)

// ID-space read API. The SPARQL engine joins basic graph patterns on
// dictionary IDs instead of materialized terms: equality is one integer
// compare, no Term structs are built for intermediate rows, and pattern
// cardinalities come from a version-invalidated cache instead of repeated
// index scans. Terms are materialized (TermOf) only for rows that survive
// the join.

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
	return sortedIDKeys(g.spo)
}

// MatchIDs calls fn for every triple matching the ID pattern; an ID of 0 in
// any position acts as a wildcard. Iteration stops early when fn returns
// false.
//
// Enumeration order is deterministic for a given graph content: access
// paths backed by index slices iterate in insertion order, and access paths
// that would otherwise walk a Go map iterate in sorted key order. The
// parallel evaluator depends on this to produce identical output row order
// at every parallelism level.
//
// fn runs while the graph read lock is held: it must not call other Graph
// methods (collect IDs and materialize after the scan instead).
func (g *Graph) MatchIDs(s, p, o ID, fn func(s, p, o ID) bool) {
	g.scans.Add(1)
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.matchIDsLocked(s, p, o, fn)
}

func (g *Graph) matchIDsLocked(s, p, o ID, fn func(s, p, o ID) bool) {
	switch {
	case s != 0 && p != 0 && o != 0:
		if _, present := g.triples[tripleKey{s, p, o}]; present {
			fn(s, p, o)
		}
	case s != 0 && p != 0:
		for _, obj := range g.spo[s][p] {
			if !fn(s, p, obj) {
				return
			}
		}
	case s != 0 && o != 0:
		for _, pred := range g.osp[o][s] {
			if !fn(s, pred, o) {
				return
			}
		}
	case p != 0 && o != 0:
		for _, sub := range g.pos[p][o] {
			if !fn(sub, p, o) {
				return
			}
		}
	case s != 0:
		for _, pred := range sortedIDKeys(g.spo[s]) {
			for _, obj := range g.spo[s][pred] {
				if !fn(s, pred, obj) {
					return
				}
			}
		}
	case p != 0:
		for _, obj := range sortedIDKeys(g.pos[p]) {
			for _, sub := range g.pos[p][obj] {
				if !fn(sub, p, obj) {
					return
				}
			}
		}
	case o != 0:
		for _, sub := range sortedIDKeys(g.osp[o]) {
			for _, pred := range g.osp[o][sub] {
				if !fn(sub, pred, o) {
					return
				}
			}
		}
	default:
		for _, sub := range sortedIDKeys(g.spo) {
			inner := g.spo[sub]
			for _, pred := range sortedIDKeys(inner) {
				for _, obj := range inner[pred] {
					if !fn(sub, pred, obj) {
						return
					}
				}
			}
		}
	}
}

// sortedIDKeys returns the keys of an index map in ascending ID order
// (the deterministic iteration order contract of MatchIDs).
func sortedIDKeys[V any](m map[ID]V) []ID {
	keys := make([]ID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// MatchCountIDs returns the number of triples matching the ID pattern
// (0 = wildcard) without materializing them. Most access paths are O(1)
// index lookups; the subject-only and object-only paths sum over an inner
// index and are the ones worth caching (see CachedCountIDs).
func (g *Graph) MatchCountIDs(s, p, o ID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.matchCountIDsLocked(s, p, o)
}

func (g *Graph) matchCountIDsLocked(s, p, o ID) int {
	switch {
	case s != 0 && p != 0 && o != 0:
		if _, present := g.triples[tripleKey{s, p, o}]; present {
			return 1
		}
		return 0
	case s != 0 && p != 0:
		return len(g.spo[s][p])
	case s != 0 && o != 0:
		return len(g.osp[o][s])
	case p != 0 && o != 0:
		return len(g.pos[p][o])
	case s != 0:
		n := 0
		for _, objs := range g.spo[s] {
			n += len(objs)
		}
		return n
	case p != 0:
		return g.psCount[p]
	case o != 0:
		n := 0
		for _, preds := range g.osp[o] {
			n += len(preds)
		}
		return n
	default:
		return len(g.triples)
	}
}

// cardKey identifies one cached pattern cardinality (0 = wildcard).
type cardKey struct{ s, p, o ID }

// cardCache memoizes pattern cardinalities against a snapshot of the graph.
// The whole cache is dropped when the graph's version moves (any mutation),
// so entries can never go stale. Per-predicate counts and other O(1) access
// paths bypass the cache entirely.
type cardCache struct {
	mu      sync.Mutex
	version uint64
	m       map[cardKey]int
	hits    uint64
	misses  uint64
}

// CachedCountIDs is MatchCountIDs backed by the graph's cardinality cache:
// the summing access paths (subject-only / object-only patterns) memoize
// their result until the next mutation. It is the estimator the SPARQL
// engine's join ordering and strategy choice run on, where the same handful
// of patterns is counted over and over across queries of a session.
func (g *Graph) CachedCountIDs(s, p, o ID) int {
	// Cheap access paths: answer directly, no cache traffic.
	if !(s != 0 && p == 0 && o == 0) && !(o != 0 && s == 0 && p == 0) {
		return g.MatchCountIDs(s, p, o)
	}
	g.mu.RLock()
	version := g.version
	g.mu.RUnlock()
	key := cardKey{s, p, o}
	g.cards.mu.Lock()
	if g.cards.version != version || g.cards.m == nil {
		g.cards.version = version
		g.cards.m = make(map[cardKey]int)
	}
	if n, ok := g.cards.m[key]; ok {
		g.cards.hits++
		g.cards.mu.Unlock()
		return n
	}
	g.cards.misses++
	g.cards.mu.Unlock()
	n := g.MatchCountIDs(s, p, o)
	g.cards.mu.Lock()
	if g.cards.version == version {
		g.cards.m[key] = n
	}
	g.cards.mu.Unlock()
	return n
}

// CardCacheStats reports the cardinality cache's current entry count and
// lifetime hit/miss counters (surfaced by EXPLAIN output and diagnostics).
func (g *Graph) CardCacheStats() (size int, hits, misses uint64) {
	g.cards.mu.Lock()
	defer g.cards.mu.Unlock()
	return len(g.cards.m), g.cards.hits, g.cards.misses
}

// Version returns the graph's mutation counter: it moves on every Add and
// Remove, and callers can use it to validate their own derived caches.
func (g *Graph) Version() uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.version
}
