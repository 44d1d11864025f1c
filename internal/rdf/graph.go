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

// triple is the inverse of key, on the key's components x, y, z: scalars,
// because a key built in memory component by component and re-read whole
// stalls the load on the stores.
func (ord order) triple(x, y, z ID) (s, p, o ID) {
	switch ord {
	case pos:
		return z, x, y
	case osp:
		return y, z, x
	}
	return x, y, z
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

// word packs k's last two components into one word, the second above the
// third: what a base array holds of k under its directory. Keys that share a
// first component order as their words do.
func (k key) word() uint64 { return uint64(k[1])<<32 | uint64(k[2]) }

// unpack is the key whose first component is v and whose word is w.
func unpack(v ID, w uint64) key { return key{v, ID(w >> 32), ID(w)} }

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

// runEnd returns the end of the run of keys from lo on whose first n
// components equal q's (lo when ks[lo] is already past them). It gallops
// from lo instead of bisecting the tail, because a run of the delta is
// short next to it.
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

// span returns the half-open range of ks whose first n ≥ 1 components equal
// q's.
func span(ks []key, q key, n int) (lo, hi int) {
	lo = lowerBound(ks, q, n)
	return lo, runEnd(ks, lo, q, n)
}

// find returns where k is, or would be inserted, in the sorted keys ks.
func find(ks []key, k key) (int, bool) {
	i := lowerBound(ks, k, 3)
	return i, i < len(ks) && ks[i] == k
}

// gallop returns the first index of ws from lo on whose word is not below t;
// ws ascends from lo on. It gallops from lo instead of bisecting the tail, so
// its cost follows the distance, not the array: every search inside a run —
// a subject's properties, a value's subjects — is this one.
func gallop(ws []uint64, lo int, t uint64) int {
	hi := lo // ws[:lo] is below t; ws[hi], if it exists, is not yet known
	for step := 1; hi < len(ws) && ws[hi] < t; step <<= 1 {
		lo, hi = hi+1, min(hi+step, len(ws))
	}
	return bisect(ws, lo, hi, t)
}

// bisect returns the first index of ws[lo:hi] whose word is not below t, or
// hi when there is none.
func bisect(ws []uint64, lo, hi int, t uint64) int {
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); ws[m] < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// gallopBelow is gallop from the top: the first index of the ascending ws
// whose word is not below t, galloping down from len(ws). Walking a sorted
// batch from its highest key down costs by the gaps, not the array.
func gallopBelow(ws []uint64, t uint64) int {
	lo, hi := len(ws), len(ws) // ws[hi:] is not below t; ws[lo-1], if it exists, is not yet known
	for step := 1; lo > 0 && ws[lo-1] >= t; step <<= 1 {
		lo, hi = max(lo-step, 0), lo-1
	}
	return bisect(ws, lo, hi, t)
}

// directory finds the run of each first component in a base array, which
// holds only the other two. SPO's is indexed by subject ID (byID): at[s] is
// the first index of base whose subject is not below s, so base[at[s]:at[s+1]]
// is subject s's run, and at ends one past the largest subject. POS's lists
// its predicates: vals holds those with a run, ascending, and
// base[at[i]:at[i+1]] is vals[i]'s run — 8 B a predicate where an ID-indexed
// one costs 4 B for every ID up to the largest predicate's. Either way the
// last entry of at is len(base). It is derived from base, built with it
// (adopt), kept in step by every later write to it (redirect) and never
// persisted.
type directory struct {
	byID bool
	vals []ID // nil when byID
	at   []uint32
}

// len is how many runs the directory holds, an ID-indexed one's empty runs
// included.
func (d *directory) len() int { return len(d.at) - 1 }

// lead is the first component of run i.
func (d *directory) lead(i int) ID {
	if d.byID {
		return ID(i)
	}
	return d.vals[i]
}

// run returns where v's run is in base: found, not searched for, when the
// directory is indexed by ID. An absent v has an empty run where its run
// would start; one past the largest, at the end.
func (d *directory) run(v ID) (lo, hi int) {
	if d.byID {
		if int(v) < d.len() {
			return int(d.at[v]), int(d.at[v+1])
		}
		end := int(d.at[d.len()])
		return end, end
	}
	i, ok := slices.BinarySearch(d.vals, v)
	if lo = int(d.at[i]); !ok {
		return lo, lo
	}
	return lo, int(d.at[i+1])
}

// redirect keeps the directory in step with changes to base: the entries
// of ks, ascending, whose dead flag equals del (dead nil: none is dead) were
// just added to base, or (del) removed from it. Nothing below the lowest
// changed first component moves; above it every run starts where it did,
// shifted by the changes below it. So the cost is one pass over the
// directory from the lowest change up — for SPO 4 B a subject, stopping once
// the changes below cancel out — and none over base.
func (d *directory) redirect(ks []key, dead []bool, del bool) {
	if len(ks) == 0 {
		return
	}
	step := 1
	if del {
		step = -1
	}
	changes := func(j int) int { // what ks[j] adds to the runs above it
		if (dead != nil && dead[j]) == del {
			return step
		}
		return 0
	}
	if !d.byID {
		// Few predicates: the list is rebuilt, with the values that gain
		// their first key and without those that lose their last.
		vals, at := make([]ID, 0, len(d.vals)+1), make([]uint32, 0, len(d.at)+1)
		shift, i, j := 0, 0, 0
		for i < len(d.vals) || j < len(ks) {
			var v ID
			if j == len(ks) || i < len(d.vals) && d.vals[i] <= ks[j][0] {
				v = d.vals[i]
			} else {
				v = ks[j][0]
			}
			start := int(d.at[i]) + shift
			for ; j < len(ks) && ks[j][0] == v; j++ {
				shift += changes(j)
			}
			if i < len(d.vals) && d.vals[i] == v {
				i++
			}
			if int(d.at[i])+shift > start {
				vals, at = append(vals, v), append(at, uint32(start))
			}
		}
		d.vals, d.at = vals, append(at, uint32(int(d.at[len(d.at)-1])+shift))
		return
	}
	at := d.at
	if top := int(ks[len(ks)-1][0]) + 2; top > len(at) {
		if top > cap(at) {
			at = append(make([]uint32, 0, top+top/16), at...)
		}
		end := at[len(at)-1] // where base ended: every new subject's run starts there
		for len(at) < top {
			at = append(at, end)
		}
	}
	shift, j := 0, 0
	for s := int(ks[0][0]) + 1; s < len(at); s++ {
		for ; j < len(ks) && int(ks[j][0]) < s; j++ {
			shift += changes(j)
		}
		if j == len(ks) && shift == 0 {
			break
		}
		at[s] = uint32(int(at[s]) + shift)
	}
	for len(at) > 1 && at[len(at)-2] == at[len(at)-1] { // the largest subject's run went
		at = at[:len(at)-1]
	}
	d.at = at
}

func (d directory) clone() directory {
	return directory{byID: d.byID, vals: slices.Clone(d.vals), at: slices.Clone(d.at)}
}

// index is one sorted permutation of the graph's triples: a packed base
// array under a directory of its first component, plus the changes made
// since the base was last rewritten.
type index struct {
	// base holds each key's word, run after run in the directory's order and
	// ascending inside a run, so the keys ascend and none repeats.
	base []uint64
	dir  directory
	// delta holds the pending changes, ascending; dead[i] says delta[i] is a
	// tombstone for a key in base, otherwise delta[i] is an addition absent
	// from base. The live set is base minus tombstones plus additions.
	delta []key
	dead  []bool
}

// baseSpan is span over base, for n ≥ 1: the directory finds the run of
// q[0], and only the rest of the prefix is searched, inside the run.
func (ix *index) baseSpan(q key, n int) (lo, hi int) {
	lo, hi = ix.dir.run(q[0])
	if n > 1 {
		t := uint64(q[1]) << 32
		end := t + 1<<32
		if n > 2 {
			t |= uint64(q[2])
			end = t + 1
		}
		run := ix.base[:hi]
		lo = gallop(run, lo, t)
		hi = gallop(run, lo, end)
	}
	return lo, hi
}

// has reports whether k is in the live set.
func (ix *index) has(k key) bool {
	if j, pending := find(ix.delta, k); pending {
		return !ix.dead[j]
	}
	lo, hi := ix.baseSpan(k, 3)
	return lo < hi
}

// cursor is the live keys of one range of an index inside one first
// component's run: base[lo:hi], whose first component is v, merged with
// delta[dlo:dhi], tombstones applied.
type cursor struct {
	v                ID
	lo, hi, dlo, dhi int
}

// spans returns the cursor over the live keys sharing q's first n ≥ 1
// components, as four ints: a cursor's five fields pass through memory, where
// ints pass in registers.
func (ix *index) spans(q key, n int) (lo, hi, dlo, dhi int) {
	lo, hi = ix.baseSpan(q, n)
	if len(ix.delta) > 0 {
		dlo, dhi = span(ix.delta, q, n)
	}
	return lo, hi, dlo, dhi
}

// count returns how many live keys share q's first n components.
func (ix *index) count(q key, n int) int {
	if n == 0 {
		return len(ix.base) + pending(ix.dead)
	}
	lo, hi, dlo, dhi := ix.spans(q, n)
	return hi - lo + pending(ix.dead[dlo:dhi])
}

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

// runs calls fn with the cursor over each first component's live keys — a
// base run, pending delta entries or both — in ascending order of the
// component, until fn returns false.
func (ix *index) runs(fn func(cursor) bool) {
	d := &ix.dir
	for i, dlo := 0, 0; ; {
		for i < d.len() && d.at[i] == d.at[i+1] { // an ID-indexed directory's empty runs
			i++
		}
		c := cursor{lo: int(d.at[i]), hi: int(d.at[i])}
		switch {
		case i < d.len() && (dlo == len(ix.delta) || d.lead(i) <= ix.delta[dlo][0]):
			c.v, c.hi = d.lead(i), int(d.at[i+1])
			i++
		case dlo < len(ix.delta):
			c.v = ix.delta[dlo][0]
		default:
			return
		}
		c.dlo, c.dhi = dlo, runEnd(ix.delta, dlo, key{c.v}, 1)
		dlo = c.dhi
		if !fn(c) {
			return
		}
	}
}

// scan calls fn for every live key sharing q's first n components, as the
// triple it stands for under ord, in ascending key order, until fn returns
// false.
func (ix *index) scan(ord order, q key, n int, fn func(s, p, o ID) bool) {
	if n == 0 {
		ix.runs(func(c cursor) bool { return ix.walk(ord, c.v, c.lo, c.hi, c.dlo, c.dhi, fn) })
		return
	}
	lo, hi, dlo, dhi := ix.spans(q, n)
	ix.walk(ord, q[0], lo, hi, dlo, dhi, fn)
}

// walk calls fn for every live key of the cursor {v, lo, hi, dlo, dhi}, as
// the triple it stands for under ord, in ascending key order, and reports
// false once fn does. It is next's loop with its own copy inline: a call per
// key costs a plain scan a fifth of its time.
func (ix *index) walk(ord order, v ID, lo, hi, dlo, dhi int, fn func(s, p, o ID) bool) bool {
	for lo < hi || dlo < dhi {
		var x, y, z ID // the key
		if dlo < dhi && (lo == hi || ix.base[lo] >= ix.delta[dlo].word()) {
			k := &ix.delta[dlo]
			x, y, z = k[0], k[1], k[2]
			dlo++
			if ix.dead[dlo-1] { // the key is base[lo], removed
				lo++
				continue
			}
		} else {
			x, y, z = v, ID(ix.base[lo]>>32), ID(ix.base[lo])
			lo++
		}
		if !fn(ord.triple(x, y, z)) {
			return false
		}
	}
	return true
}

// next takes the first live key off c; ok is false once c is empty.
func (ix *index) next(c *cursor) (key, bool) {
	for c.lo < c.hi || c.dlo < c.dhi {
		if c.dlo < c.dhi && (c.lo == c.hi || ix.base[c.lo] >= ix.delta[c.dlo].word()) {
			c.dlo++
			if ix.dead[c.dlo-1] { // the key is base[lo], removed
				c.lo++
				continue
			}
			return ix.delta[c.dlo-1], true
		}
		c.lo++
		return unpack(c.v, ix.base[c.lo-1]), true
	}
	return key{}, false
}

// runsOf calls fn, for every first component v in ascending order, with the
// cursor over the live keys (v, x, ·) when base or delta holds one: two
// gallops inside each of v's runs, so the cost follows the number of values
// v and the logarithm of their runs, not of the array.
func (ix *index) runsOf(x ID, fn func(cursor)) {
	t := uint64(x) << 32
	ix.runs(func(c cursor) bool {
		run := ix.base[:c.hi]
		c.lo = gallop(run, c.lo, t)
		c.hi = gallop(run, c.lo, t+1<<32)
		if c.dlo < c.dhi {
			q, delta := key{c.v, x}, ix.delta[:c.dhi]
			c.dlo += lowerBound(delta[c.dlo:], q, 2)
			c.dhi = runEnd(delta, c.dlo, q, 2)
		}
		if c.lo < c.hi || c.dlo < c.dhi {
			fn(c)
		}
		return true
	})
}

// distinct calls fn with every distinct value of component n — 0 or 1 —
// among the live keys sharing q's first n components, ascending. It steps
// from one value's run to the next, so the cost follows the number of values.
func (ix *index) distinct(q key, n int, fn func(ID)) {
	if n == 0 {
		ix.runs(func(c cursor) bool {
			if ix.len(c) > 0 {
				fn(c.v)
			}
			return true
		})
		return
	}
	c := cursor{v: q[0]}
	c.lo, c.hi, c.dlo, c.dhi = ix.spans(q, 1)
	for c.lo < c.hi || c.dlo < c.dhi {
		if c.lo < c.hi && (c.dlo == c.dhi || ID(ix.base[c.lo]>>32) <= ix.delta[c.dlo][1]) {
			q[1] = ID(ix.base[c.lo] >> 32)
		} else {
			q[1] = ix.delta[c.dlo][1]
		}
		end := gallop(ix.base[:c.hi], c.lo, uint64(q[1])<<32+1<<32)
		dend := runEnd(ix.delta[:c.dhi], c.dlo, q, 2)
		if end-c.lo+pending(ix.dead[c.dlo:dend]) > 0 {
			fn(q[1])
		}
		c.lo, c.dlo = end, dend
	}
}

// opens calls fn with the first key of each two-component prefix of ks that
// base lacks: ks ascends, and no write is pending. Inside one first
// component's run, each search gallops on from where the last one ended.
func (ix *index) opens(ks []key, fn func(key)) {
	at, hi := 0, 0
	for i, k := range ks {
		if i == 0 || k[0] != ks[i-1][0] {
			at, hi = ix.dir.run(k[0])
		} else if k[1] == ks[i-1][1] {
			continue
		}
		if at = gallop(ix.base[:hi], at, uint64(k[1])<<32); at == hi || ID(ix.base[at]>>32) != k[1] {
			fn(k)
		}
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
// forward pass drops the tombstoned keys (squeeze), then the additions go in
// (insert). Nothing below the lowest change moves, in base or in the
// directory.
func (ix *index) merge() {
	if slices.Contains(ix.dead, true) {
		ix.squeeze()
	}
	adds := ix.delta[:0]
	for j, k := range ix.delta {
		if !ix.dead[j] {
			adds = append(adds, k)
		}
	}
	ix.insert(adds)
	ix.delta, ix.dead = ix.delta[:0], ix.dead[:0]
}

// squeeze drops the delta's tombstoned keys from base in one forward pass
// from the lowest: the directory finds each one's run, a gallop from the last
// one's place finds it in the run, and the block between two of them moves
// down by one copy. Then the directory follows.
func (ix *index) squeeze() {
	base, w, r := ix.base, 0, 0 // base[:w] is the live set so far, base[r:] not yet read
	for j, k := range ix.delta {
		if !ix.dead[j] {
			continue
		}
		lo, hi := ix.dir.run(k[0]) // where the run was: base[r:] has not moved
		i := gallop(base[:hi], max(lo, r), k.word())
		if w < r {
			copy(base[w:], base[r:i])
		}
		w, r = w+i-r, i+1
	}
	ix.base = append(base[:w], base[r:]...)
	ix.dir.redirect(ix.delta, ix.dead, true)
}

// insert puts adds — ascending, none in base — into base in one pass: from the
// highest down, each moves the block of base words above it up by one copy.
// Below the last addition placed nothing has moved yet, so the directory
// still finds each addition's run there. Then the directory follows.
func (ix *index) insert(adds []key) {
	base, end := ix.base, len(ix.base) // base[:end] is still where it was
	if n := end + len(adds); n > cap(base) {
		// A sixteenth of headroom, not append's quarter: the arrays are the
		// bulk of the graph's memory, and a regrowth is one more copy among
		// merges that each move most of the array anyway.
		base = append(make([]uint64, 0, n+n/16), base...)
	}
	base = base[:end+len(adds)]
	for j := len(adds) - 1; j >= 0; j-- {
		lo, hi := ix.dir.run(adds[j][0])
		at := lo + gallopBelow(base[lo:min(hi, end)], adds[j].word())
		copy(base[at+j+1:], base[at:end]) // above adds[0..j], so up by j+1
		base[at+j] = adds[j].word()
		end = at
	}
	ix.base = base
	ix.dir.redirect(adds, nil, false)
}

// adopt makes the keys ks an empty index's base and directory with one
// stable counting sort on component c, whose values are below size-1: the
// counts are where the runs start, and each key's other two components, in
// rotation order, pack into its word. ks must ascend on those two, so that
// every run comes out ascending: SPO's keys with c = 0, OSP's with c = 2 for
// POS. The base is sized exactly.
func (ix *index) adopt(ks []key, c, size int) {
	at := make([]uint32, size) // at[v]: where v's run starts, then where its next word goes
	for _, k := range ks {
		at[k[c]+1]++
	}
	for v := 1; v < size; v++ {
		at[v] += at[v-1]
	}
	base, y, z := make([]uint64, len(ks)), (c+1)%3, (c+2)%3
	for _, k := range ks {
		base[at[k[c]]] = uint64(k[y])<<32 | uint64(k[z])
		at[k[c]]++
	}
	copy(at[1:], at) // each at[v] is where v's run ends, so where v+1's starts
	at[0] = 0
	ix.base = base
	if ix.dir.byID {
		ix.dir.at = at
		return
	}
	ix.dir.vals, ix.dir.at = nil, nil
	for v := range size - 1 {
		if at[v] < at[v+1] {
			ix.dir.vals, ix.dir.at = append(ix.dir.vals, ID(v)), append(ix.dir.at, at[v])
		}
	}
	ix.dir.at = append(ix.dir.at, uint32(len(base)))
}

// maxDelta is how many pending changes an index holds before they are merged
// into its base: few enough that inserting into the sorted delta moves a few
// KB and a scan's extra bisection stays in cache, enough that a bulk load
// through Add rewrites the base arrays once per maxDelta triples.
const maxDelta = 1024

// Graph is an in-memory RDF triple store with dictionary encoding: the
// triples are kept as two sorted permutations, SPO and POS, each a flat array
// of the last two IDs of every triple packed into one word under a directory
// of the first. Every read is a range of one of them — or, for a pattern
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
	// preds holds, per predicate ID, what the graph keeps of its triples;
	// floor is the last version at which everything moved (SetVersion).
	// ReadVersion reads both.
	preds map[ID]predicate
	floor uint64
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

// predicate is what the graph keeps per predicate: the version of the last
// mutation of one of its triples, and how many distinct subjects and objects
// its live triples have — the planner's selectivity of a bound subject or
// object. Every write keeps the counts exact: a single one moves them when
// the (s, p, ·) or (p, o, ·) run it touches appears or empties
// (applyLocked), a bulk one adds the runs its batch opens (load), and a
// graph built from scratch counts its arrays once (recount).
type predicate struct {
	changed           uint64
	subjects, objects int
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	g := &Graph{dict: NewDict(), preds: map[ID]predicate{}}
	g.ix[spo].dir = directory{byID: true, at: []uint32{0}}
	g.ix[pos].dir = directory{at: []uint32{0}}
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
// merged: a search inside each key's subject run), journals the rest in input
// order, and only then touches the arrays.
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
	n, bySubject := g.dict.Len(), &g.ix[spo]
	keys := slices.DeleteFunc(slices.Compact(rotate(in, n, 3)), bySubject.has)
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
	pr, edge, step := g.preds[p], 1, 1 // a run holding edge keys after the change just appeared or emptied
	if del {
		edge, step = 0, -1
	}
	if g.ix[spo].count(key{s, p}, 2) == edge {
		pr.subjects += step
	}
	if g.ix[pos].count(key{p, o}, 2) == edge {
		pr.objects += step
	}
	pr.changed = g.version
	g.preds[p] = pr
	if len(g.ix[spo].delta) > maxDelta {
		for ord := range g.ix {
			g.ix[ord].merge()
		}
	}
}

// load adds keys — strictly ascending (s, p, o) of issued IDs, none live, no
// write pending — to the triple set, a version each. An empty graph packs
// the keys into SPO (adopt) and derives POS from it (derivePOS); any other
// merges them into both, the batch's POS order coming from two stable sorts,
// through the OSP layout. Each predicate of the batch is noted changed at the
// batch's last version, and gains a distinct subject or object for each
// (s, p) or (p, o) run the batch opens. The caller holds the write lock or
// owns the graph exclusively.
func (g *Graph) load(keys []key) {
	if len(keys) == 0 {
		return
	}
	if len(g.ix[spo].base) == 0 {
		g.ix[spo].adopt(keys, 0, int(keys[len(keys)-1][0])+2)
		g.derivePOS()
		return
	}
	byPOS := rotate(keys, g.dict.Len(), 2)
	g.version += uint64(len(keys))
	var preds []ID // the batch's predicates, ascending
	for i, k := range byPOS {
		if i == 0 || k[0] != byPOS[i-1][0] {
			preds = append(preds, k[0])
		}
	}
	opened := make([][2]int, len(preds)) // per predicate: the (s, p) and (p, o) runs the batch opens
	g.ix[spo].opens(keys, func(k key) {
		j, _ := slices.BinarySearch(preds, k[1])
		opened[j][0]++
	})
	g.ix[pos].opens(byPOS, func(k key) {
		j, _ := slices.BinarySearch(preds, k[0])
		opened[j][1]++
	})
	for j, p := range preds {
		pr := g.preds[p]
		pr.changed, pr.subjects, pr.objects = g.version, pr.subjects+opened[j][0], pr.objects+opened[j][1]
		g.preds[p] = pr
	}
	g.ix[spo].insert(keys)
	g.ix[pos].insert(byPOS)
}

// derivePOS gives an empty POS the triples of SPO, all of them new to the
// graph, a version each: SPO's triples in order, stably sorted on the object,
// are the OSP layout, and that, stably sorted on the predicate, is POS
// (adopt). It is rotate's first step with SPO's base as its input, so a
// graph built from a snapshot never holds its triples as keys in SPO order.
func (g *Graph) derivePOS() {
	bySubject, n := &g.ix[spo], g.dict.Len()
	next := make([]uint32, n+2) // next[o]: where the next key with object o goes
	for _, w := range bySubject.base {
		next[ID(w)+1]++
	}
	for v := 1; v < len(next); v++ {
		next[v] += next[v-1]
	}
	byOSP := make([]key, len(bySubject.base))
	for s := range bySubject.dir.len() {
		for _, w := range bySubject.base[bySubject.dir.at[s]:bySubject.dir.at[s+1]] {
			byOSP[next[ID(w)]] = key{ID(w), ID(s), ID(w >> 32)}
			next[ID(w)]++
		}
	}
	g.ix[pos].adopt(byOSP, 2, n+2)
	g.version += uint64(len(bySubject.base))
	for _, p := range g.ix[pos].dir.vals {
		g.preds[p] = predicate{changed: g.version}
	}
	g.recount()
}

// recount sets every predicate's distinct subjects and objects from the base
// arrays of a graph just built, with no write pending: one pass over SPO
// counts the (s, p) runs inside each subject's run, one over POS the distinct
// objects of each predicate's run.
func (g *Graph) recount() {
	bySubject, byPred := &g.ix[spo], &g.ix[pos]
	subjects := make([]int, byPred.dir.len()) // by the predicate's place in POS's list
	for s := range bySubject.dir.len() {
		last := ID(0)
		for _, w := range bySubject.base[bySubject.dir.at[s]:bySubject.dir.at[s+1]] {
			if p := ID(w >> 32); p != last {
				i, _ := slices.BinarySearch(byPred.dir.vals, p)
				subjects[i]++
				last = p
			}
		}
	}
	for p, pr := range g.preds {
		pr.subjects, pr.objects = 0, 0
		if i, ok := slices.BinarySearch(byPred.dir.vals, p); ok {
			pr.subjects = subjects[i]
			last := ID(0)
			for _, w := range byPred.base[byPred.dir.at[i]:byPred.dir.at[i+1]] {
				if o := ID(w >> 32); o != last {
					pr.objects++
					last = o
				}
			}
		}
		g.preds[p] = pr
	}
}

// rotate returns keys sorted as (x, y, z) re-sorted and rewritten as
// (z, x, y), times times over: each a stable sort on z, whose values are IDs
// up to maxID. SPO rotates into OSP, OSP into POS; keys in any order come back
// ordered by z alone, so three rotations are a radix sort. keys is not
// changed: the rotations take turns writing two buffers and share one
// counting array. Each counts, unless the batch is so small next to the
// dictionary that the counting array costs more than comparing.
func rotate(keys []key, maxID, times int) []key {
	var bufs [2][]key
	var next []uint32 // next[v]: where the next key with z = v goes
	for t := range times {
		if bufs[t%2] == nil {
			bufs[t%2] = make([]key, len(keys))
		}
		out := bufs[t%2]
		if len(keys) < maxID/16 {
			for i, k := range keys {
				out[i] = key{k[2], k[0], k[1]}
			}
			slices.SortStableFunc(out, func(a, b key) int { return cmp.Compare(a[0], b[0]) })
			keys = out
			continue
		}
		if next == nil {
			next = make([]uint32, maxID+2)
		} else {
			clear(next)
		}
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
		keys = out
	}
	return keys
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
	// t holds the terms of the IDs in at: a bound position's from the start,
	// and a term is decoded only when its ID differs from the last match's —
	// the subject of an SPO run, the object of a POS one.
	t, at := Triple{s, p, o}, key{sID, pID, oID}
	g.matchIDsLocked(sID, pID, oID, func(si, pi, oi ID) bool {
		if si != at[0] {
			g.dict.termInto(&t.S, si)
			at[0] = si
		}
		if pi != at[1] {
			g.dict.termInto(&t.P, pi)
			at[1] = pi
		}
		if oi != at[2] {
			g.dict.termInto(&t.O, oi)
			at[2] = oi
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
		preds:   maps.Clone(g.preds),
		floor:   g.floor,
	}
	for ord, ix := range g.ix {
		out.ix[ord] = index{base: slices.Clone(ix.base), dir: ix.dir.clone(), delta: slices.Clone(ix.delta), dead: slices.Clone(ix.dead)}
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
