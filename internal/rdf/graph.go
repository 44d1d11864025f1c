package rdf

import (
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Any is the wildcard term for Graph.Match: a position holding Any matches
// every term. It is not a valid RDF term and can never be stored in a graph.
var Any = Term{Kind: TermKind(0xFF)}

type tripleKey struct{ s, p, o ID }

// Graph is an in-memory RDF triple store with dictionary encoding and three
// access-path indexes (SPO, POS, OSP). All read operations are safe for
// concurrent use; writes are serialized by an internal lock.
//
// Graph is the "triple store" substrate of the reproduction: the paper runs
// against a remote SPARQL endpoint, which we replace by this store plus the
// engine in internal/sparql.
type Graph struct {
	mu      sync.RWMutex
	dict    *Dict
	triples map[tripleKey]struct{}
	spo     map[ID]map[ID][]ID // subject -> predicate -> objects
	pos     map[ID]map[ID][]ID // predicate -> object -> subjects
	osp     map[ID]map[ID][]ID // object -> subject -> predicates
	psCount map[ID]int         // predicate -> triple count (facet statistics)
	// version moves on every mutation; derived caches (cards, callers of
	// Version) validate against it instead of subscribing to writes.
	version uint64
	// journal, when installed, receives every effective mutation (an Add of
	// a new triple, a Remove of a present one) before it is applied — the
	// write-ahead hook of the durable store (internal/store). It runs with
	// the graph write lock held and must not call back into the graph.
	journal func(op JournalOp, t Triple, version uint64)
	cards   cardCache
	// scans counts index scan operations (Match / MatchIDs calls) for the
	// metrics endpoint; one relaxed atomic add per scan, negligible next to
	// the read lock the scan already takes.
	scans atomic.Uint64
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		dict:    NewDict(),
		triples: make(map[tripleKey]struct{}),
		spo:     make(map[ID]map[ID][]ID),
		pos:     make(map[ID]map[ID][]ID),
		osp:     make(map[ID]map[ID][]ID),
		psCount: make(map[ID]int),
	}
}

// Len returns the number of triples stored.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.triples)
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
	return g.addLocked(t)
}

// AddAll inserts a batch of triples and returns how many were new.
func (g *Graph) AddAll(ts []Triple) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, t := range ts {
		if g.addLocked(t) {
			n++
		}
	}
	return n
}

func (g *Graph) addLocked(t Triple) bool {
	s := g.dict.Intern(t.S)
	p := g.dict.Intern(t.P)
	o := g.dict.Intern(t.O)
	key := tripleKey{s, p, o}
	if _, dup := g.triples[key]; dup {
		return false
	}
	if g.journal != nil {
		g.journal(JournalAdd, t, g.version+1)
	}
	return g.addIDLocked(s, p, o)
}

// addIDLocked inserts a triple whose terms are already interned, by ID.
// The snapshot reader uses it to rebuild a graph without re-interning (which
// would reassign dictionary IDs); addLocked funnels through it so the index
// bookkeeping lives in one place. It does not journal — ID-level inserts
// only happen while restoring from media that IS the journal.
func (g *Graph) addIDLocked(s, p, o ID) bool {
	key := tripleKey{s, p, o}
	if _, dup := g.triples[key]; dup {
		return false
	}
	g.triples[key] = struct{}{}
	addIndex(g.spo, s, p, o)
	addIndex(g.pos, p, o, s)
	addIndex(g.osp, o, s, p)
	g.psCount[p]++
	g.version++
	return true
}

// loadSorted replaces the (empty) graph's triple set and indexes with keys
// that arrive in strictly ascending (s, p, o) order — the canonical snapshot
// order. The ordering contract is what makes bulk building fast: keys cannot
// repeat (no duplicate probes), every index can be built from contiguous runs
// with exactly-sized maps and slices (no incremental rehashing or slice
// regrowth), and the two permuted orders are obtained by one sort each over a
// flat, pointer-free array. The caller (the snapshot reader) owns the graph
// exclusively; no locking here.
func (g *Graph) loadSorted(keys []tripleKey) {
	n := len(keys)
	g.triples = make(map[tripleKey]struct{}, n)
	for _, k := range keys {
		g.triples[k] = struct{}{}
	}
	g.spo = buildRunIndex(keys)
	// The two permuted orders need a sort each. When every ID fits in 21
	// bits (up to ~2M terms — effectively always), the three components pack
	// into one uint64 whose numeric order IS the permuted key order, and
	// slices.Sort's integer fast path beats a comparator sort on 12-byte
	// structs by a wide margin. Larger dictionaries take the comparator path.
	if ID(g.dict.Len()) <= packedIDMask {
		packed := make([]uint64, n)
		for i, k := range keys {
			packed[i] = uint64(k.p)<<42 | uint64(k.o)<<21 | uint64(k.s) // (p, o, s)
		}
		slices.Sort(packed)
		g.pos = buildRunIndexPacked(packed)
		for i, k := range keys {
			packed[i] = uint64(k.o)<<42 | uint64(k.s)<<21 | uint64(k.p) // (o, s, p)
		}
		slices.Sort(packed)
		g.osp = buildRunIndexPacked(packed)
	} else {
		perm := make([]tripleKey, n)
		for i, k := range keys {
			perm[i] = tripleKey{s: k.p, p: k.o, o: k.s} // (p, o, s)
		}
		slices.SortFunc(perm, tripleKey.compare)
		g.pos = buildRunIndex(perm)
		for i, k := range keys {
			perm[i] = tripleKey{s: k.o, p: k.s, o: k.p} // (o, s, p)
		}
		slices.SortFunc(perm, tripleKey.compare)
		g.osp = buildRunIndex(perm)
	}
	g.psCount = make(map[ID]int, len(g.pos))
	for p, inner := range g.pos {
		count := 0
		for _, subjects := range inner {
			count += len(subjects)
		}
		g.psCount[p] = count
	}
	g.version += uint64(n)
}

// packedIDMask is the largest ID that fits a 21-bit packed component.
const packedIDMask = 1<<21 - 1

// buildRunIndex builds a two-level index from keys sorted ascending in the
// index's own component order (fields of each key already permuted to
// (outer, inner, value)). Runs give exact sizes up front: each outer map,
// inner map, and value slice is allocated at final size.
func buildRunIndex(sorted []tripleKey) map[ID]map[ID][]ID {
	n := len(sorted)
	outer := 0
	for i := 0; i < n; i++ {
		if i == 0 || sorted[i].s != sorted[i-1].s {
			outer++
		}
	}
	idx := make(map[ID]map[ID][]ID, outer)
	for i := 0; i < n; {
		a := sorted[i].s
		end, innerCount := i, 0
		for end < n && sorted[end].s == a {
			if end == i || sorted[end].p != sorted[end-1].p {
				innerCount++
			}
			end++
		}
		inner := make(map[ID][]ID, innerCount)
		for j := i; j < end; {
			b := sorted[j].p
			k := j
			for k < end && sorted[k].p == b {
				k++
			}
			vals := make([]ID, k-j)
			for x := j; x < k; x++ {
				vals[x-j] = sorted[x].o
			}
			inner[b] = vals
			j = k
		}
		idx[a] = inner
		i = end
	}
	return idx
}

// buildRunIndexPacked is buildRunIndex over 21-bit-packed keys
// (outer<<42 | inner<<21 | value), sorted ascending.
func buildRunIndexPacked(sorted []uint64) map[ID]map[ID][]ID {
	n := len(sorted)
	outer := 0
	for i := 0; i < n; i++ {
		if i == 0 || sorted[i]>>42 != sorted[i-1]>>42 {
			outer++
		}
	}
	idx := make(map[ID]map[ID][]ID, outer)
	for i := 0; i < n; {
		a := sorted[i] >> 42
		end, innerCount := i, 0
		for end < n && sorted[end]>>42 == a {
			if end == i || sorted[end]>>21&packedIDMask != sorted[end-1]>>21&packedIDMask {
				innerCount++
			}
			end++
		}
		inner := make(map[ID][]ID, innerCount)
		for j := i; j < end; {
			b := sorted[j] >> 21 & packedIDMask
			k := j
			for k < end && sorted[k]>>21&packedIDMask == b {
				k++
			}
			vals := make([]ID, k-j)
			for x := j; x < k; x++ {
				vals[x-j] = ID(sorted[x] & packedIDMask)
			}
			inner[ID(b)] = vals
			j = k
		}
		idx[ID(a)] = inner
		i = end
	}
	return idx
}

func addIndex(idx map[ID]map[ID][]ID, a, b, c ID) {
	inner, ok := idx[a]
	if !ok {
		inner = make(map[ID][]ID)
		idx[a] = inner
	}
	inner[b] = append(inner[b], c)
}

// Remove deletes a triple, reporting whether it was present.
func (g *Graph) Remove(t Triple) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok1 := g.dict.Lookup(t.S)
	p, ok2 := g.dict.Lookup(t.P)
	o, ok3 := g.dict.Lookup(t.O)
	if !ok1 || !ok2 || !ok3 {
		return false
	}
	key := tripleKey{s, p, o}
	if _, present := g.triples[key]; !present {
		return false
	}
	if g.journal != nil {
		g.journal(JournalRemove, t, g.version+1)
	}
	delete(g.triples, key)
	removeIndex(g.spo, s, p, o)
	removeIndex(g.pos, p, o, s)
	removeIndex(g.osp, o, s, p)
	g.version++
	g.psCount[p]--
	if g.psCount[p] == 0 {
		delete(g.psCount, p)
	}
	return true
}

func removeIndex(idx map[ID]map[ID][]ID, a, b, c ID) {
	inner := idx[a]
	list := inner[b]
	for i, v := range list {
		if v == c {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			break
		}
	}
	if len(list) == 0 {
		delete(inner, b)
		if len(inner) == 0 {
			delete(idx, a)
		}
	} else {
		inner[b] = list
	}
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
// moving it simply invalidates them.
func (g *Graph) SetVersion(v uint64) {
	g.mu.Lock()
	g.version = v
	g.mu.Unlock()
}

// Has reports whether the graph contains the exact triple.
func (g *Graph) Has(t Triple) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	s, ok1 := g.dict.Lookup(t.S)
	p, ok2 := g.dict.Lookup(t.P)
	o, ok3 := g.dict.Lookup(t.O)
	if !ok1 || !ok2 || !ok3 {
		return false
	}
	_, present := g.triples[tripleKey{s, p, o}]
	return present
}

// Match calls fn for every triple matching the pattern; rdf.Any in any
// position acts as a wildcard. Iteration stops early when fn returns false.
// The triple passed to fn is fully materialized (terms, not IDs).
func (g *Graph) Match(s, p, o Term, fn func(Triple) bool) {
	g.scans.Add(1)
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.matchLocked(s, p, o, fn)
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

func (g *Graph) matchLocked(s, p, o Term, fn func(Triple) bool) {
	sID, sOK := g.resolve(s)
	pID, pOK := g.resolve(p)
	oID, oOK := g.resolve(o)
	// A bound position with an unknown term can never match.
	if !sOK || !pOK || !oOK {
		return
	}
	switch {
	case sID != 0 && pID != 0 && oID != 0:
		if _, present := g.triples[tripleKey{sID, pID, oID}]; present {
			fn(Triple{g.dict.Term(sID), g.dict.Term(pID), g.dict.Term(oID)})
		}
	case sID != 0 && pID != 0:
		st, pt := g.dict.Term(sID), g.dict.Term(pID)
		for _, obj := range g.spo[sID][pID] {
			if !fn(Triple{st, pt, g.dict.Term(obj)}) {
				return
			}
		}
	case sID != 0 && oID != 0:
		st, ot := g.dict.Term(sID), g.dict.Term(oID)
		for _, pred := range g.osp[oID][sID] {
			if !fn(Triple{st, g.dict.Term(pred), ot}) {
				return
			}
		}
	case pID != 0 && oID != 0:
		pt, ot := g.dict.Term(pID), g.dict.Term(oID)
		for _, sub := range g.pos[pID][oID] {
			if !fn(Triple{g.dict.Term(sub), pt, ot}) {
				return
			}
		}
	case sID != 0:
		st := g.dict.Term(sID)
		for pred, objs := range g.spo[sID] {
			pt := g.dict.Term(pred)
			for _, obj := range objs {
				if !fn(Triple{st, pt, g.dict.Term(obj)}) {
					return
				}
			}
		}
	case pID != 0:
		pt := g.dict.Term(pID)
		for obj, subs := range g.pos[pID] {
			ot := g.dict.Term(obj)
			for _, sub := range subs {
				if !fn(Triple{g.dict.Term(sub), pt, ot}) {
					return
				}
			}
		}
	case oID != 0:
		ot := g.dict.Term(oID)
		for sub, preds := range g.osp[oID] {
			st := g.dict.Term(sub)
			for _, pred := range preds {
				if !fn(Triple{st, g.dict.Term(pred), ot}) {
					return
				}
			}
		}
	default:
		for key := range g.triples {
			t := Triple{g.dict.Term(key.s), g.dict.Term(key.p), g.dict.Term(key.o)}
			if !fn(t) {
				return
			}
		}
	}
}

// resolve maps a pattern term to an ID: Any yields (0, true); a known term
// yields its ID; an unknown term yields (0, false), meaning "cannot match".
func (g *Graph) resolve(t Term) (ID, bool) {
	if t == Any {
		return 0, true
	}
	id, ok := g.dict.Lookup(t)
	if !ok {
		return 0, false
	}
	return id, true
}

// MatchCount returns the number of triples matching the pattern without
// materializing them. It is the cardinality estimator used for BGP join
// ordering in the SPARQL engine.
func (g *Graph) MatchCount(s, p, o Term) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	sID, sOK := g.resolve(s)
	pID, pOK := g.resolve(p)
	oID, oOK := g.resolve(o)
	if !sOK || !pOK || !oOK {
		return 0
	}
	switch {
	case sID != 0 && pID != 0 && oID != 0:
		if _, present := g.triples[tripleKey{sID, pID, oID}]; present {
			return 1
		}
		return 0
	case sID != 0 && pID != 0:
		return len(g.spo[sID][pID])
	case sID != 0 && oID != 0:
		return len(g.osp[oID][sID])
	case pID != 0 && oID != 0:
		return len(g.pos[pID][oID])
	case sID != 0:
		n := 0
		for _, objs := range g.spo[sID] {
			n += len(objs)
		}
		return n
	case pID != 0:
		return g.psCount[pID]
	case oID != 0:
		n := 0
		for _, preds := range g.osp[oID] {
			n += len(preds)
		}
		return n
	default:
		return len(g.triples)
	}
}

// Triples returns all triples in deterministic (sorted) order. Intended for
// serialization and tests; prefer Match for queries.
func (g *Graph) Triples() []Triple {
	out := make([]Triple, 0, g.Len())
	g.Match(Any, Any, Any, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Objects returns the distinct objects of (s, p, ?o). The result slice is
// preallocated from the index entry; since triples are unique, the object
// list of a fixed (s, p) needs no deduplication.
func (g *Graph) Objects(s, p Term) []Term {
	g.mu.RLock()
	defer g.mu.RUnlock()
	sID, sOK := g.resolve(s)
	pID, pOK := g.resolve(p)
	if !sOK || !pOK {
		return nil
	}
	if sID != 0 && pID != 0 {
		objs := g.spo[sID][pID]
		if len(objs) == 0 {
			return nil
		}
		out := make([]Term, len(objs))
		for i, o := range objs {
			out[i] = g.dict.Term(o)
		}
		return out
	}
	// Wildcard position(s): fall back to a dedup scan.
	var out []Term
	seen := make(map[ID]struct{})
	g.matchIDsLocked(sID, pID, 0, func(_, _, o ID) bool {
		if _, dup := seen[o]; !dup {
			seen[o] = struct{}{}
			out = append(out, g.dict.Term(o))
		}
		return true
	})
	return out
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

// Subjects returns the distinct subjects of (?s, p, o), preallocated from
// the POS index entry (unique triples make the subject list duplicate-free).
func (g *Graph) Subjects(p, o Term) []Term {
	g.mu.RLock()
	defer g.mu.RUnlock()
	pID, pOK := g.resolve(p)
	oID, oOK := g.resolve(o)
	if !pOK || !oOK {
		return nil
	}
	if pID != 0 && oID != 0 {
		subs := g.pos[pID][oID]
		if len(subs) == 0 {
			return nil
		}
		out := make([]Term, len(subs))
		for i, s := range subs {
			out[i] = g.dict.Term(s)
		}
		return out
	}
	var out []Term
	seen := make(map[ID]struct{})
	g.matchIDsLocked(0, pID, oID, func(s, _, _ ID) bool {
		if _, dup := seen[s]; !dup {
			seen[s] = struct{}{}
			out = append(out, g.dict.Term(s))
		}
		return true
	})
	return out
}

// Predicates returns the distinct predicates appearing in the graph, sorted.
func (g *Graph) Predicates() []Term {
	g.mu.RLock()
	out := make([]Term, 0, len(g.psCount))
	for p := range g.psCount {
		out = append(out, g.dict.Term(p))
	}
	g.mu.RUnlock()
	SortTerms(out)
	return out
}

// PredicateCount returns the number of triples whose predicate is p.
func (g *Graph) PredicateCount(p Term) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	id, ok := g.dict.Lookup(p)
	if !ok {
		return 0
	}
	return g.psCount[id]
}

// SubjectsWithPredicate returns the distinct subjects that have at least one
// value for predicate p. The dedup set and result are presized from the
// predicate's triple count (an upper bound on its distinct subjects).
func (g *Graph) SubjectsWithPredicate(p Term) []Term {
	g.mu.RLock()
	defer g.mu.RUnlock()
	pID, ok := g.resolve(p)
	if !ok || pID == 0 {
		return nil
	}
	n := g.psCount[pID]
	seen := make(map[ID]struct{}, n)
	out := make([]Term, 0, n)
	for _, subs := range g.pos[pID] {
		for _, s := range subs {
			if _, dup := seen[s]; !dup {
				seen[s] = struct{}{}
				out = append(out, g.dict.Term(s))
			}
		}
	}
	return out
}

// Clone returns a deep copy of the graph (fresh dictionary and indexes).
func (g *Graph) Clone() *Graph {
	out := NewGraph()
	g.Match(Any, Any, Any, func(t Triple) bool {
		out.Add(t)
		return true
	})
	return out
}

// Merge adds every triple of other into g and returns the number added.
func (g *Graph) Merge(other *Graph) int {
	n := 0
	other.Match(Any, Any, Any, func(t Triple) bool {
		if g.Add(t) {
			n++
		}
		return true
	})
	return n
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
	st := Stats{
		Triples:    len(g.triples),
		Terms:      g.dict.Len(),
		Subjects:   len(g.spo),
		Predicates: len(g.psCount),
	}
	for _, t := range g.dict.toTerm {
		if t.IsLiteral() {
			st.Literals++
		}
	}
	if typeID, ok := g.dict.Lookup(NewIRI(RDFType)); ok {
		st.Classes = len(g.pos[typeID])
	}
	return st
}
