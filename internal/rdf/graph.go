package rdf

import (
	"cmp"
	"context"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
)

// Any is the wildcard term for Graph.Match: a position holding Any matches
// every term. It is not a valid RDF term and can never be stored in a graph.
var Any = Term{Kind: TermKind(0xFF)}

// key is an ID triple with its components in one permutation's sort order.
type key [3]ID

// order names a permutation of (s, p, o). The graph keeps an index in the
// first two; osp is only a key layout: the order object-bound patterns
// enumerate in, and the step a snapshot's keys pass through on the way from
// SPO to POS (rotate).
type order uint8

const (
	spo order = iota // keys are (s, p, o)
	pos              // keys are (p, o, s)
	osp              // keys are (o, s, p)
)

// indexed is how many orders the graph keeps an index in: spo and pos.
const indexed = 2

// key permutes a triple into ord's component order.
func (ord order) key(s, p, o ID) key {
	switch ord {
	case pos:
		return key{p, o, s}
	case osp:
		return key{o, s, p}
	}
	return key{s, p, o}
}

// triple is the inverse of key.
func (ord order) triple(k key) (s, p, o ID) {
	switch ord {
	case pos:
		return k[2], k[0], k[1]
	case osp:
		return k[1], k[2], k[0]
	}
	return k[0], k[1], k[2]
}

// comparePrefix orders k against q on their first n components.
func (k key) comparePrefix(q key, n int) int {
	switch {
	case n > 0 && k[0] != q[0]:
		return cmp.Compare(k[0], q[0])
	case n > 1 && k[1] != q[1]:
		return cmp.Compare(k[1], q[1])
	case n > 2:
		return cmp.Compare(k[2], q[2])
	}
	return 0
}

func (k key) compare(q key) int { return k.comparePrefix(q, 3) }

// lowerBound returns the first index of the sorted keys ks whose first n
// components are not below q's.
func lowerBound(ks []key, q key, n int) int {
	lo, hi := 0, len(ks)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); ks[m].comparePrefix(q, n) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// lowerBoundBelow is lowerBound(ks[:hi], k, 3) galloping down from hi: walking
// a sorted batch from its highest key down costs by the gaps, not the array.
func lowerBoundBelow(ks []key, hi int, k key) int {
	for step := 1; hi > 0; step <<= 1 {
		p := max(hi-step, 0)
		if ks[p].compare(k) < 0 {
			return p + 1 + lowerBound(ks[p+1:hi], k, 3)
		}
		hi = p
	}
	return 0
}

// runEnd returns the end of the run of keys from lo on whose first n
// components equal q's (lo when ks[lo] is already past them). It gallops
// from lo instead of bisecting the tail, because a run (a subject's
// properties, a value's subjects) is short next to the array.
func runEnd(ks []key, lo int, q key, n int) int {
	a, b := lo-1, len(ks) // a: last index known inside the run; b: first known outside
	for step := 1; a+step < len(ks); step <<= 1 {
		if ks[a+step].comparePrefix(q, n) != 0 {
			b = a + step
			break
		}
		a += step
	}
	for a+1 < b {
		if m := int(uint(a+b) >> 1); ks[m].comparePrefix(q, n) == 0 {
			a = m
		} else {
			b = m
		}
	}
	return b
}

// seek returns the first index from lo on whose first two components,
// packed into one word and shifted right by shift, are not below q: shift 0
// compares (k[0], k[1]), shift 32 compares k[0]. It gallops from lo, so its
// cost follows the distance, not the array.
func seek(ks []key, lo int, q uint64, shift uint) int {
	below := func(k *key) bool { return (uint64(k[0])<<32|uint64(k[1]))>>shift < q }
	a, b := lo-1, len(ks) // a: last index known below q; b: first known not below
	for step := 1; a+step < len(ks); step <<= 1 {
		if !below(&ks[a+step]) {
			b = a + step
			break
		}
		a += step
	}
	for a+1 < b {
		if m := int(uint(a+b) >> 1); below(&ks[m]) {
			a = m
		} else {
			b = m
		}
	}
	return b
}

// tailBound returns the first index of ks from lo on whose predicate and
// object, packed into one word, are not below t; ks[lo:] is one subject's
// run, which ascends in that word. It gallops from lo, as seek does.
func tailBound(ks []key, lo int, t uint64) int {
	below := func(k *key) bool { return uint64(k[1])<<32|uint64(k[2]) < t }
	a, b := lo-1, len(ks)
	for step := 1; a+step < len(ks); step <<= 1 {
		if !below(&ks[a+step]) {
			b = a + step
			break
		}
		a += step
	}
	for a+1 < b {
		if m := int(uint(a+b) >> 1); below(&ks[m]) {
			a = m
		} else {
			b = m
		}
	}
	return b
}

// span returns the half-open range of ks whose first n components equal q's.
func span(ks []key, q key, n int) (lo, hi int) {
	if n == 0 {
		return 0, len(ks)
	}
	lo = lowerBound(ks, q, n)
	return lo, runEnd(ks, lo, q, n)
}

// index is one sorted permutation of the graph's triples: a flat base array
// plus the changes made since the base was last rewritten.
type index struct {
	base []key // ascending, no duplicates
	// dir is SPO's subject directory, nil in POS: dir[s] is the first index
	// of base whose subject is not below s, so base[dir[s]:dir[s+1]] is
	// subject s's run, and dir ends one past the largest subject, at
	// len(base). It is derived from base, kept in step by every write to it
	// (redirect) and never persisted.
	dir []uint32
	// delta holds the pending changes, ascending; dead[i] says delta[i] is a
	// tombstone for a key in base, otherwise delta[i] is an addition absent
	// from base. The live set is base minus tombstones plus additions.
	delta []key
	dead  []bool
}

// run returns where subject s's run is in base: found in the directory, not
// searched for. A subject past the largest has an empty run at the end.
func (ix *index) run(s ID) (lo, hi int) {
	if int(s)+1 < len(ix.dir) {
		return int(ix.dir[s]), int(ix.dir[s+1])
	}
	return len(ix.base), len(ix.base)
}

// baseSpan is span over base. In SPO a bound subject's run comes from the
// directory, and only the rest of the prefix is searched, inside the run.
func (ix *index) baseSpan(q key, n int) (lo, hi int) {
	if n == 0 || ix.dir == nil {
		return span(ix.base, q, n)
	}
	lo, hi = ix.run(q[0])
	if n > 1 {
		t := uint64(q[1]) << 32
		end := t + 1<<32
		if n > 2 {
			t |= uint64(q[2])
			end = t + 1
		}
		run := ix.base[:hi]
		lo = tailBound(run, lo, t)
		hi = tailBound(run, lo, end)
	}
	return lo, hi
}

// redirect keeps the subject directory, in the index that has one, in step
// with changes to base: ks ascending, each an addition unless dead[i] marks
// it a removal (dead nil: all additions), made since dir was last in step or
// about to be. Nothing below the lowest changed subject moves; above it every
// run starts where it did, shifted by the changes below it. So the cost is
// one pass over dir from the lowest changed subject up, none over base.
func (ix *index) redirect(ks []key, dead []bool) {
	if ix.dir == nil || len(ks) == 0 {
		return
	}
	dir := ix.dir
	if top := int(ks[len(ks)-1][0]) + 2; top > len(dir) {
		if top > cap(dir) {
			dir = append(make([]uint32, 0, top+top/16), dir...)
		}
		end := dir[len(dir)-1] // where base ended: every new subject's run starts there
		for len(dir) < top {
			dir = append(dir, end)
		}
	}
	shift, j := 0, 0
	for s := int(ks[0][0]) + 1; s < len(dir); s++ {
		for ; j < len(ks) && int(ks[j][0]) < s; j++ {
			if dead != nil && dead[j] {
				shift--
			} else {
				shift++
			}
		}
		if j == len(ks) && shift == 0 {
			break
		}
		dir[s] = uint32(int(dir[s]) + shift)
	}
	for len(dir) > 1 && dir[len(dir)-2] == dir[len(dir)-1] { // the largest subject's run went
		dir = dir[:len(dir)-1]
	}
	ix.dir = dir
}

// find returns where k is, or would be inserted, in the sorted keys ks.
func find(ks []key, k key) (int, bool) {
	i := lowerBound(ks, k, 3)
	return i, i < len(ks) && ks[i] == k
}

// has reports whether k is in the live set.
func (ix *index) has(k key) bool {
	if j, pending := find(ix.delta, k); pending {
		return !ix.dead[j]
	}
	lo, hi := ix.baseSpan(k, 3)
	return lo < hi
}

// count returns how many live keys share q's first n components.
func (ix *index) count(q key, n int) int {
	lo, hi := ix.baseSpan(q, n)
	dlo, dhi := span(ix.delta, q, n)
	return ix.len(cursor{lo, hi, dlo, dhi})
}

// cursor is the live keys of one range of an index: base[lo:hi] merged with
// delta[dlo:dhi], tombstones applied.
type cursor struct{ lo, hi, dlo, dhi int }

// len is how many live keys c holds.
func (ix *index) len(c cursor) int { return c.hi - c.lo + pending(ix.dead[c.dlo:c.dhi]) }

// pending is what a run of delta entries adds to a count of base keys.
func pending(dead []bool) int {
	n := len(dead)
	for _, d := range dead {
		if d {
			n -= 2
		}
	}
	return n
}

// scan calls fn for every live key sharing q's first n components, as the
// triple it stands for under ord, in ascending key order, until fn returns
// false.
func (ix *index) scan(ord order, q key, n int, fn func(s, p, o ID) bool) {
	lo, hi := ix.baseSpan(q, n)
	dlo, dhi := 0, 0
	if len(ix.delta) > 0 {
		dlo, dhi = span(ix.delta, q, n)
	}
	for lo < hi || dlo < dhi {
		var k key
		if dlo < dhi && (lo == hi || ix.base[lo].compare(ix.delta[dlo]) >= 0) {
			k = ix.delta[dlo]
			dlo++
			if ix.dead[dlo-1] { // k is base[lo], removed
				lo++
				continue
			}
		} else {
			k = ix.base[lo]
			lo++
		}
		if !fn(ord.triple(k)) {
			return
		}
	}
}

// next takes the first live key off c; ok is false once c is empty. It is
// one step of scan's loop, which keeps its own copy inline: a call per key
// costs a plain scan a fifth of its time.
func (ix *index) next(c *cursor) (key, bool) {
	for c.lo < c.hi || c.dlo < c.dhi {
		if c.dlo < c.dhi && (c.lo == c.hi || ix.base[c.lo].compare(ix.delta[c.dlo]) >= 0) {
			c.dlo++
			if ix.dead[c.dlo-1] { // the key is base[lo], removed
				c.lo++
				continue
			}
			return ix.delta[c.dlo-1], true
		}
		c.lo++
		return ix.base[c.lo-1], true
	}
	return key{}, false
}

// runsOf calls fn, for every distinct first component v in ascending order,
// with the cursor over the live keys (v, x, ·) when base or delta holds one.
// It gallops from one v's run to the next, so the cost follows the number of
// values v and the logarithm of their runs, not of the array.
func (ix *index) runsOf(x ID, fn func(cursor)) {
	lo, dlo := 0, 0
	for lo < len(ix.base) || dlo < len(ix.delta) {
		var v ID
		if lo < len(ix.base) && (dlo == len(ix.delta) || ix.base[lo][0] <= ix.delta[dlo][0]) {
			v = ix.base[lo][0]
		} else {
			v = ix.delta[dlo][0]
		}
		q := uint64(v)<<32 | uint64(x)
		var c cursor
		c.lo = seek(ix.base, lo, q, 0)
		c.hi = seek(ix.base, c.lo, q+1, 0)
		c.dlo = seek(ix.delta, dlo, q, 0)
		c.dhi = seek(ix.delta, c.dlo, q+1, 0)
		if c.lo < c.hi || c.dlo < c.dhi {
			fn(c)
		}
		lo, dlo = seek(ix.base, c.hi, uint64(v)+1, 32), seek(ix.delta, c.dhi, uint64(v)+1, 32)
	}
}

// distinct calls fn with every distinct value of component n among the live
// keys sharing q's first n components, ascending. It steps from one value's
// run to the next, so the cost follows the number of values.
func (ix *index) distinct(q key, n int, fn func(ID)) {
	lo, hi := ix.baseSpan(q, n)
	dlo, dhi := span(ix.delta, q, n)
	for lo < hi || dlo < dhi {
		if lo < hi && (dlo == dhi || ix.base[lo][n] <= ix.delta[dlo][n]) {
			q[n] = ix.base[lo][n]
		} else {
			q[n] = ix.delta[dlo][n]
		}
		end, dend := runEnd(ix.base[:hi], lo, q, n+1), runEnd(ix.delta[:dhi], dlo, q, n+1)
		if end-lo+pending(ix.dead[dlo:dend]) > 0 {
			fn(q[n])
		}
		lo, dlo = end, dend
	}
}

// apply records one effective change: the addition of a key the live set
// lacks, or (del) the removal of one it has. A change that undoes a pending
// one cancels it instead of stacking on it.
func (ix *index) apply(k key, del bool) {
	j, pending := find(ix.delta, k)
	if pending {
		ix.delta = slices.Delete(ix.delta, j, j+1)
		ix.dead = slices.Delete(ix.dead, j, j+1)
		return
	}
	ix.delta = slices.Insert(ix.delta, j, k)
	ix.dead = slices.Insert(ix.dead, j, del)
}

// merge rewrites base as the live set and empties the delta, in place: a
// forward pass drops the tombstoned keys, then the additions go in (insert).
// Nothing below the lowest change moves, in base or in the directory.
func (ix *index) merge() {
	ix.redirect(ix.delta, ix.dead)
	base, adds := ix.base, ix.delta[:0]
	if slices.Contains(ix.dead, true) {
		j, w := 0, 0
		for _, k := range base {
			for j < len(ix.delta) && (!ix.dead[j] || ix.delta[j].compare(k) < 0) {
				j++
			}
			if j < len(ix.delta) && ix.delta[j] == k {
				j++
				continue
			}
			base[w] = k
			w++
		}
		base = base[:w]
	}
	for j, k := range ix.delta {
		if !ix.dead[j] {
			adds = append(adds, k)
		}
	}
	ix.base = base
	ix.insert(adds)
	ix.delta, ix.dead = ix.delta[:0], ix.dead[:0]
}

// insert puts adds — ascending, none in base — into base in one pass: from the
// highest down, each moves the block of base keys above it up by one copy.
func (ix *index) insert(adds []key) {
	base, end := ix.base, len(ix.base) // base[:end] is still where it was
	if n := end + len(adds); n > cap(base) {
		// A sixteenth of headroom, not append's quarter: the arrays are the
		// bulk of the graph's memory, and a regrowth is one more copy among
		// merges that each move most of the array anyway.
		base = append(make([]key, 0, n+n/16), base...)
	}
	base = base[:end+len(adds)]
	for j := len(adds) - 1; j >= 0; j-- {
		at := lowerBoundBelow(base, end, adds[j])
		copy(base[at+j+1:], base[at:end]) // above adds[0..j], so up by j+1
		base[at+j] = adds[j]
		end = at
	}
	ix.base = base
}

// maxDelta is how many pending changes an index holds before they are merged
// into its base: few enough that inserting into the sorted delta moves a few
// KB and a scan's extra bisection stays in cache, enough that a bulk load
// through Add rewrites the base arrays once per maxDelta triples.
const maxDelta = 1024

// Graph is an in-memory RDF triple store with dictionary encoding: the
// triples are kept as two sorted flat arrays of ID triples (the SPO and POS
// permutations), every read is a range of one of them — or, for a pattern
// that binds the object and not the predicate, a range per predicate — and
// writes go to a small sorted delta that is merged into the arrays when it
// fills.
// All read operations are safe for concurrent use; writes are serialized by
// an internal lock.
//
// Graph is the "triple store" substrate of the reproduction: the paper runs
// against a remote SPARQL endpoint, which we replace by this store plus the
// engine in internal/sparql.
type Graph struct {
	mu   sync.RWMutex
	dict *Dict
	ix   [indexed]index // by order: SPO and POS
	// version moves on every mutation; callers of Version validate their
	// derived caches against it instead of subscribing to writes.
	version uint64
	// changed holds, per predicate ID, the version of the last mutation of
	// one of that predicate's triples; floor is the last version at which
	// everything moved (SetVersion). ReadVersion reads both.
	changed map[ID]uint64
	floor   uint64
	// journal, when installed, receives every effective mutation (an Add of
	// a new triple, a Remove of a present one) before it is applied — the
	// write-ahead hook of the durable store (internal/store). It runs with
	// the graph write lock held and must not call back into the graph.
	journal func(op JournalOp, t Triple, version uint64)
	// scans counts index scan operations (Match / MatchIDs calls) for the
	// metrics endpoint; one relaxed atomic add per scan, negligible next to
	// the read lock the scan already takes.
	scans atomic.Uint64
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	g := &Graph{dict: NewDict(), changed: map[ID]uint64{}}
	g.ix[spo].dir = []uint32{0}
	return g
}

// Len returns the number of triples stored.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.matchCountIDsLocked(0, 0, 0)
}

// TermCount returns the number of distinct terms in the dictionary.
func (g *Graph) TermCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.dict.Len()
}

// Add inserts a triple, reporting whether it was new.
func (g *Graph) Add(t Triple) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.addKeyLocked(g.intern(t))
}

// AddAll inserts a batch of triples and returns how many were new. It leaves
// graph, dictionary and version as Add on each triple in turn would: terms
// get their IDs in call order, and every effective add is journaled once, in
// input order, with the version it establishes, before the indexes change.
// The batch size alone selects how: up to maxDelta triples go through the
// sorted delta like Add; a larger batch, which would force a merge anyway, is
// sorted once and merged into each permutation in one pass (addKeysLocked).
func (g *Graph) AddAll(ts []Triple) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	keys := make([]key, len(ts))
	for i, t := range ts {
		keys[i] = g.intern(t)
	}
	return g.addKeysLocked(keys)
}

// intern returns t as (s, p, o) of dictionary IDs, issuing those it lacks.
func (g *Graph) intern(t Triple) key {
	return key{g.dict.Intern(t.S), g.dict.Intern(t.P), g.dict.Intern(t.O)}
}

// addKeyLocked adds one (s, p, o) of interned IDs through the delta.
func (g *Graph) addKeyLocked(k key) bool {
	if g.ix[spo].has(k) {
		return false
	}
	if g.journal != nil {
		g.journal(JournalAdd, g.tripleOf(k), g.version+1)
	}
	g.applyLocked(k[0], k[1], k[2], false)
	return true
}

func (g *Graph) tripleOf(k key) Triple {
	return Triple{g.dict.Term(k[0]), g.dict.Term(k[1]), g.dict.Term(k[2])}
}

// addKeysLocked is AddAll past the dictionary: in holds (s, p, o) of issued
// IDs in input order and is not changed. The bulk path sorts a copy, drops
// duplicates and keys already live (in base, once the pending writes are
// merged), journals the rest in input order, and only then touches the arrays.
func (g *Graph) addKeysLocked(in []key) int {
	if len(in) <= maxDelta {
		n := 0
		for _, k := range in {
			if g.addKeyLocked(k) {
				n++
			}
		}
		return n
	}
	for ord := range g.ix {
		g.ix[ord].merge()
	}
	n := g.dict.Len()
	keys, base := slices.Compact(rotate(rotate(rotate(in, n), n), n)), g.ix[spo].base
	w, hi := len(keys), len(base)
	for i := len(keys) - 1; i >= 0; i-- {
		if hi = lowerBoundBelow(base, hi, keys[i]); hi == len(base) || base[hi] != keys[i] {
			w--
			keys[w] = keys[i]
		}
	}
	keys = keys[w:]
	if g.journal != nil {
		done, v := make([]bool, len(keys)), g.version
		for _, k := range in {
			if i, fresh := find(keys, k); fresh && !done[i] {
				done[i] = true
				v++
				g.journal(JournalAdd, g.tripleOf(k), v)
			}
		}
	}
	g.load(keys)
	return len(keys)
}

// Remove deletes a triple, reporting whether it was present.
func (g *Graph) Remove(t Triple) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, p, o, ok := g.resolve(t.S, t.P, t.O)
	if !ok || !g.ix[spo].has(key{s, p, o}) {
		return false
	}
	if g.journal != nil {
		g.journal(JournalRemove, t, g.version+1)
	}
	g.applyLocked(s, p, o, true)
	return true
}

// applyLocked records an effective change in both permutations.
func (g *Graph) applyLocked(s, p, o ID, del bool) {
	for ord := range g.ix {
		g.ix[ord].apply(order(ord).key(s, p, o), del)
	}
	g.version++
	g.changed[p] = g.version
	if len(g.ix[spo].delta) > maxDelta {
		for ord := range g.ix {
			g.ix[ord].merge()
		}
	}
}

// load adds keys — strictly ascending (s, p, o) of issued IDs, none live, no
// write pending — to the triple set, a version each. The batch's POS order
// comes from two stable sorts, through the OSP layout; an empty graph (the
// snapshot reader's) takes the two slices as its arrays, any other merges
// them in.
// Each predicate of the batch is noted changed at the batch's last version,
// once per run of the POS order. The caller holds the write lock or owns the
// graph exclusively.
func (g *Graph) load(keys []key) {
	byPOS := rotate(rotate(keys, g.dict.Len()), g.dict.Len())
	g.version += uint64(len(keys))
	for i, k := range byPOS {
		if i == 0 || k[0] != byPOS[i-1][0] {
			g.changed[k[0]] = g.version
		}
	}
	for ord, ks := range [indexed][]key{spo: keys, pos: byPOS} {
		g.ix[ord].redirect(ks, nil)
		if len(g.ix[ord].base) == 0 {
			g.ix[ord].base = ks
		} else {
			g.ix[ord].insert(ks)
		}
	}
}

// rotate returns keys sorted as (x, y, z) re-sorted and rewritten as
// (z, x, y): a stable sort on z, whose values are IDs up to maxID. SPO rotates
// into OSP, OSP into POS; keys in any order come back ordered by z alone, so
// three rotations are a radix sort. It counts, unless the batch is so small
// next to the dictionary that the counting array costs more than comparing.
func rotate(keys []key, maxID int) []key {
	out := make([]key, len(keys))
	if len(keys) < maxID/16 {
		for i, k := range keys {
			out[i] = key{k[2], k[0], k[1]}
		}
		slices.SortStableFunc(out, func(a, b key) int { return cmp.Compare(a[0], b[0]) })
		return out
	}
	next := make([]uint32, maxID+2) // next[v]: where the next key with z = v goes
	for _, k := range keys {
		next[k[2]+1]++
	}
	for v := 1; v < len(next); v++ {
		next[v] += next[v-1]
	}
	for _, k := range keys {
		out[next[k[2]]] = key{k[2], k[0], k[1]}
		next[k[2]]++
	}
	return out
}

// JournalOp discriminates the two graph mutations for the write-ahead
// journal hook (see SetJournal).
type JournalOp uint8

const (
	// JournalAdd records the insertion of a new triple.
	JournalAdd JournalOp = 1
	// JournalRemove records the deletion of a present triple.
	JournalRemove JournalOp = 2
)

// SetJournal installs fn as the graph's write-ahead mutation journal: every
// effective Add and Remove calls fn — with the materialized triple and the
// version the mutation will establish — BEFORE touching the indexes, so a
// durable log captures the change ahead of the in-memory state. No-op
// mutations (duplicate adds, removes of absent triples) are not journaled.
//
// fn runs with the graph's write lock held: it must be fast, must not call
// back into the graph, and is responsible for its own synchronization with
// readers of whatever log it maintains. Pass nil to uninstall.
func (g *Graph) SetJournal(fn func(op JournalOp, t Triple, version uint64)) {
	g.mu.Lock()
	g.journal = fn
	g.mu.Unlock()
}

// SetVersion forces the mutation counter to v. The durable store uses it
// after restoring a snapshot so version tokens stay monotonic across
// restarts (a freshly rebuilt graph would otherwise restart counting at its
// triple count, and write-ahead-log records stamped by the previous process
// could alias older epochs). Derived caches validate against the version, so
// moving it simply invalidates them: v is also the floor of every read
// version, as if every predicate changed at v.
func (g *Graph) SetVersion(v uint64) {
	g.mu.Lock()
	g.version, g.floor = v, v
	g.mu.Unlock()
}

// Has reports whether the graph contains the exact triple.
func (g *Graph) Has(t Triple) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	s, p, o, ok := g.resolve(t.S, t.P, t.O)
	return ok && g.ix[spo].has(key{s, p, o})
}

// Match calls fn for every triple matching the pattern; rdf.Any in any
// position acts as a wildcard. Iteration stops early when fn returns false.
// The triple passed to fn is fully materialized (terms, not IDs); the order
// is that of MatchIDs.
func (g *Graph) Match(s, p, o Term, fn func(Triple) bool) {
	g.scans.Add(1)
	g.mu.RLock()
	defer g.mu.RUnlock()
	sID, pID, oID, ok := g.resolve(s, p, o)
	if !ok {
		return
	}
	t := Triple{s, p, o}
	g.matchIDsLocked(sID, pID, oID, func(si, pi, oi ID) bool {
		if sID == 0 {
			g.dict.termInto(&t.S, si)
		}
		if pID == 0 {
			g.dict.termInto(&t.P, pi)
		}
		if oID == 0 {
			g.dict.termInto(&t.O, oi)
		}
		return fn(t)
	})
}

// IndexScans returns the lifetime count of index scan operations (Match and
// MatchIDs calls) against this graph, for diagnostics and GET /metrics.
func (g *Graph) IndexScans() uint64 { return g.scans.Load() }

// matchCtxPollEvery is how many rows a MatchCtx scan yields between context
// checks: frequent enough that a full-graph scan notices cancellation
// quickly, infrequent enough that the check cost stays negligible.
const matchCtxPollEvery = 1024

// MatchCtx is Match under a context: the scan stops early once ctx is
// cancelled or its deadline expires, and the context's cause is returned
// (context.Cause: a cancellation made on behalf of an expired deadline
// reports as that deadline, not as a bare cancel).
// The check runs every matchCtxPollEvery rows, so a cancelled scan may
// deliver up to that many extra triples before stopping.
func (g *Graph) MatchCtx(ctx context.Context, s, p, o Term, fn func(Triple) bool) error {
	if ctx == nil || ctx.Done() == nil {
		g.Match(s, p, o, fn)
		return nil
	}
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	n := 0
	var ctxErr error
	g.Match(s, p, o, func(t Triple) bool {
		if n++; n%matchCtxPollEvery == 0 {
			if ctx.Err() != nil {
				ctxErr = context.Cause(ctx)
				return false
			}
		}
		return fn(t)
	})
	return ctxErr
}

// resolve maps pattern terms to IDs: Any yields the wildcard 0, a known term
// its ID; ok is false when a bound position holds a term the dictionary has
// never seen, which can match nothing.
func (g *Graph) resolve(s, p, o Term) (sID, pID, oID ID, ok bool) {
	ids := [3]ID{}
	for i, t := range [3]Term{s, p, o} {
		if t != Any {
			if ids[i], ok = g.dict.Lookup(t); !ok {
				return 0, 0, 0, false
			}
		}
	}
	return ids[0], ids[1], ids[2], true
}

// MatchCount returns the number of triples matching the pattern without
// materializing them.
func (g *Graph) MatchCount(s, p, o Term) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	sID, pID, oID, ok := g.resolve(s, p, o)
	if !ok {
		return 0
	}
	return g.matchCountIDsLocked(sID, pID, oID)
}

// Triples returns all triples in deterministic (sorted) order. Intended for
// serialization and tests; prefer Match for queries. The dictionary is
// ranked once (SortTerms parses each lexical form once) and the ID triples
// are sorted by rank, so no comparison touches a term.
func (g *Graph) Triples() []Triple {
	g.mu.RLock()
	defer g.mu.RUnlock()
	terms := make([]Term, g.dict.Len())
	for i := range terms {
		terms[i] = g.dict.Term(ID(i + 1))
	}
	SortTerms(terms)
	rank := make([]ID, len(terms)+1)
	for r, t := range terms {
		id, _ := g.dict.Lookup(t)
		rank[id] = ID(r)
	}
	ranked := make([]key, 0, g.matchCountIDsLocked(0, 0, 0))
	g.ix[spo].scan(spo, key{}, 0, func(s, p, o ID) bool {
		ranked = append(ranked, key{rank[s], rank[p], rank[o]})
		return true
	})
	slices.SortFunc(ranked, key.compare)
	out := make([]Triple, len(ranked))
	for i, k := range ranked {
		out[i] = Triple{terms[k[0]], terms[k[1]], terms[k[2]]}
	}
	return out
}

// column returns the distinct terms in position at (0 = s, 1 = p, 2 = o), a
// wildcard of the ID pattern, over the triples matching it, in scan order.
// When at is the only wildcard the values cannot repeat (triples are unique)
// and the result is sized from the count; otherwise a set filters repeats.
func (g *Graph) column(s, p, o ID, at int) []Term {
	var seen map[ID]struct{}
	var out []Term
	if bound := [3]ID{s, p, o}; bound[(at+1)%3] != 0 && bound[(at+2)%3] != 0 {
		n := g.matchCountIDsLocked(s, p, o)
		if n == 0 {
			return nil
		}
		out = make([]Term, 0, n)
	} else {
		seen = make(map[ID]struct{})
	}
	g.matchIDsLocked(s, p, o, func(s, p, o ID) bool {
		id := [3]ID{s, p, o}[at]
		if seen != nil {
			if _, dup := seen[id]; dup {
				return true
			}
			seen[id] = struct{}{}
		}
		out = append(out, Term{})
		g.dict.termInto(&out[len(out)-1], id)
		return true
	})
	return out
}

// Objects returns the distinct objects of (s, p, ?o).
func (g *Graph) Objects(s, p Term) []Term {
	g.mu.RLock()
	defer g.mu.RUnlock()
	sID, pID, _, ok := g.resolve(s, p, Any)
	if !ok {
		return nil
	}
	return g.column(sID, pID, 0, 2)
}

// Object returns one object of (s, p, ?o), or the zero Term if none exists.
func (g *Graph) Object(s, p Term) Term {
	var out Term
	g.Match(s, p, Any, func(t Triple) bool {
		out = t.O
		return false
	})
	return out
}

// Subjects returns the distinct subjects of (?s, p, o).
func (g *Graph) Subjects(p, o Term) []Term {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, pID, oID, ok := g.resolve(Any, p, o)
	if !ok {
		return nil
	}
	return g.column(0, pID, oID, 0)
}

// Predicates returns the distinct predicates appearing in the graph, sorted.
func (g *Graph) Predicates() []Term {
	g.mu.RLock()
	var out []Term
	g.ix[pos].distinct(key{}, 0, func(p ID) { out = append(out, g.dict.Term(p)) })
	g.mu.RUnlock()
	SortTerms(out)
	return out
}

// PredicateCount returns the number of triples whose predicate is p.
func (g *Graph) PredicateCount(p Term) int {
	if p == Any {
		return 0
	}
	return g.MatchCount(Any, p, Any)
}

// Clone returns a deep copy of the graph: same triples, same dictionary IDs,
// same version and read versions; the journal hook and the scan counter stay
// behind.
func (g *Graph) Clone() *Graph {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := &Graph{
		dict:    g.dict.clone(),
		version: g.version,
		changed: maps.Clone(g.changed),
		floor:   g.floor,
	}
	for ord, ix := range g.ix {
		out.ix[ord] = index{base: slices.Clone(ix.base), dir: slices.Clone(ix.dir), delta: slices.Clone(ix.delta), dead: slices.Clone(ix.dead)}
	}
	return out
}

// Stats summarizes a graph for diagnostics and the efficiency experiments.
type Stats struct {
	Triples    int
	Terms      int
	Subjects   int
	Predicates int
	Classes    int
	Literals   int
}

// Stats computes summary statistics over the graph.
func (g *Graph) Stats() Stats {
	g.mu.RLock()
	defer g.mu.RUnlock()
	st := Stats{Triples: g.matchCountIDsLocked(0, 0, 0), Terms: g.dict.Len(), Literals: g.dict.literals}
	g.ix[spo].distinct(key{}, 0, func(ID) { st.Subjects++ })
	g.ix[pos].distinct(key{}, 0, func(ID) { st.Predicates++ })
	if typeID, ok := g.dict.Lookup(NewIRI(RDFType)); ok {
		g.ix[pos].distinct(key{typeID}, 1, func(ID) { st.Classes++ })
	}
	return st
}
