package sparql

import (
	"slices"
	"strconv"
	"sync"

	"rdfanalytics/internal/rdf"
)

// The evaluator's one solution representation. A solution is a fixed-width
// row of dictionary IDs — one column ("slot") per variable of the SELECT
// scope, 0 = unbound — from the first index scan to the last modifier; rows
// live flat in a batch, and terms are decoded once, at the edge
// (execSelect). Computed values get IDs from a per-evaluation scratch
// dictionary, so equal terms ⇔ equal IDs and join compatibility, DISTINCT,
// GROUP BY keys and COUNT(DISTINCT …) are integer comparisons.

// scope maps the variables of one SELECT — or of a bare group pattern (ASK,
// CONSTRUCT, DESCRIBE, update WHERE) — to row columns, assigned once before
// evaluation. A subquery gets its own scope and joins its projection onto
// the outer slots by name.
type scope struct {
	names []string
	slots map[string]int
}

func (sc *scope) add(name string) {
	if _, ok := sc.slots[name]; !ok {
		sc.slots[name] = len(sc.names)
		sc.names = append(sc.names, name)
	}
}

// slot returns the column of a variable, or -1 when it has none: a variable
// nothing can bind, or one the whole query mentions exactly once (its value
// is never read, so matches are not stored — projection pushdown).
func (sc *scope) slot(name string) int {
	if i, ok := sc.slots[name]; ok {
		return i
	}
	return -1
}

// width is the row width; at least 1, so a batch's row count is always
// len(vals)/width even when the scope has no variables.
func (sc *scope) width() int { return max(1, len(sc.names)) }

// selectScope assigns the slots of a SELECT query: every variable in order
// of first appearance — unless the query mentions it exactly once and
// observes whole solutions nowhere (SELECT *, COUNT(DISTINCT *)) — then the
// SELECT aliases, the derived names of GROUP BY expressions and the hidden
// sort keys of aggregate-bearing ORDER BY conditions.
func selectScope(q *Query) *scope {
	uses := map[string]int{}
	visitQueryVars(q, true, func(v string) { uses[v]++ })
	keepAll := q.Select.Star
	queryExprs(q, func(e Expr) {
		walkExpr(e, func(x Expr) bool {
			agg, ok := x.(ExprAggregate)
			keepAll = keepAll || ok && agg.Star && agg.Distinct
			return true
		})
	})
	sc := &scope{slots: map[string]int{}}
	visitQueryVars(q, false, func(v string) {
		if keepAll || uses[v] > 1 {
			sc.add(v)
		}
	})
	for _, it := range q.Select.Items {
		if it.Expr != nil {
			sc.add(it.Var)
		}
	}
	for i, gc := range q.GroupBy {
		if name := groupCondName(i, gc); name != "" {
			sc.add(name)
		}
	}
	for i, c := range q.OrderBy {
		if HasAggregate(c.Expr) {
			sc.add(hiddenOrderVar(i))
		}
	}
	return sc
}

func hiddenOrderVar(i int) string { return "_anon_ord" + strconv.Itoa(i) }

// batch is a sequence of solution rows: n rows of width IDs each, flat in
// one backing slice.
type batch struct {
	width int
	vals  []rdf.ID
}

func newBatch(width, capRows int) *batch {
	return &batch{width: width, vals: make([]rdf.ID, 0, capRows*width)}
}

// unitBatch is the join identity: one row binding nothing.
func unitBatch(width int) *batch {
	return &batch{width: width, vals: make([]rdf.ID, width)}
}

func (b *batch) n() int { return len(b.vals) / b.width }

func (b *batch) row(i int) []rdf.ID { return b.vals[i*b.width : (i+1)*b.width] }

// rowBlockIDs is the size of a row block: 64 KiB of IDs.
const rowBlockIDs = 16 << 10

// rowBlocks recycles row blocks across steps, queries and workers. A block
// holds no pointers, and one that is never put back is ordinary garbage.
var rowBlocks = sync.Pool{New: func() any { return new([rowBlockIDs]rdf.ID) }}

// rowWriter is where an operator that cannot know its output size in advance
// puts its rows: in pooled fixed-size blocks, whole rows to a block, which
// batch (or drainTo, for the partitions of one step) copies once into a batch
// allocated at exactly the final size. So no operator's output grows by
// append, and what a step allocates is what it returns. One goroutine writes
// to a rowWriter, and the row add returns is good until the next add.
type rowWriter struct {
	width int
	rows  int
	full  [][]rdf.ID // filled blocks, in order
	cur   []rdf.ID   // the block being filled; its length is what is used
}

// add appends a copy of the row and returns it for the caller to extend.
func (w *rowWriter) add(row []rdf.ID) []rdf.ID {
	if cap(w.cur)-len(w.cur) < w.width {
		w.nextBlock()
	}
	base := len(w.cur)
	w.cur = w.cur[:base+w.width]
	w.rows++
	copy(w.cur[base:], row)
	return w.cur[base:]
}

// addAll appends a copy of every row of b.
func (w *rowWriter) addAll(b *batch) {
	for i, n := 0, b.n(); i < n; i++ {
		w.add(b.row(i))
	}
}

func (w *rowWriter) nextBlock() {
	if w.cur != nil {
		w.full = append(w.full, w.cur)
	}
	if w.width > rowBlockIDs {
		w.cur = make([]rdf.ID, 0, w.width) // a row wider than a block gets one of its own
		return
	}
	w.cur = rowBlocks.Get().(*[rowBlockIDs]rdf.ID)[:0]
}

// drainTo appends the writer's rows to out, which must have room for them,
// and hands the blocks back: nothing may still refer into them.
func (w *rowWriter) drainTo(out *batch) {
	for _, blk := range w.full {
		out.vals = append(out.vals, blk...)
		putRowBlock(blk)
	}
	out.vals = append(out.vals, w.cur...)
	putRowBlock(w.cur)
	*w = rowWriter{width: w.width}
}

// putRowBlock recycles a block if it is a pooled one.
func putRowBlock(blk []rdf.ID) {
	if cap(blk) == rowBlockIDs {
		rowBlocks.Put((*[rowBlockIDs]rdf.ID)(blk[:rowBlockIDs]))
	}
}

// batch returns the rows written, in a batch of exactly their size.
func (w *rowWriter) batch() *batch {
	out := newBatch(w.width, w.rows)
	w.drainTo(out)
	return out
}

// scratchBit marks the IDs the scratch dictionary issues. Graph IDs are
// dense from 1, so no graph — not even one growing under a concurrent
// INSERT DATA — hands out an ID with the high bit set.
const scratchBit rdf.ID = 1 << 31

// termDict is the per-evaluation dictionary view: the graph's dictionary
// extended by scratch IDs for terms the graph does not hold (BIND and SELECT
// expression values, aggregates, VALUES constants). Only the coordinating
// goroutine uses it (worker partitions touch nothing but IDs).
type termDict struct {
	g       *rdf.Graph
	ids     map[rdf.Term]rdf.ID // terms interned so far: graph or scratch ID
	scratch []rdf.Term          // scratch[id&^scratchBit]
}

// id interns a term: the graph's ID when the graph knows the term, a
// scratch ID otherwise. One term always maps to one ID within an evaluation.
func (d *termDict) id(t rdf.Term) rdf.ID {
	if id, ok := d.ids[t]; ok {
		return id
	}
	id, known := d.g.TermID(t)
	if !known {
		id = scratchBit | rdf.ID(len(d.scratch))
		d.scratch = append(d.scratch, t)
	}
	d.ids[t] = id
	return id
}

// term decodes a bound ID.
func (d *termDict) term(id rdf.ID) rdf.Term {
	if id&scratchBit != 0 {
		return d.scratch[id&^scratchBit]
	}
	return d.g.TermOf(id)
}

// bucketize is a stable counting sort: given each item's bucket number it
// returns the items ordered by bucket — input order within a bucket — and
// the offsets: bucket b is order[start[b]:start[b+1]].
func bucketize(bucket []int32, nbuckets int) (start, order []int32) {
	start = make([]int32, nbuckets+1)
	for _, b := range bucket {
		start[b+1]++
	}
	for b := 0; b < nbuckets; b++ {
		start[b+1] += start[b]
	}
	order = make([]int32, len(bucket))
	next := slices.Clone(start[:nbuckets])
	for i, b := range bucket {
		order[next[b]] = int32(i)
		next[b]++
	}
	return start, order
}

// tupleIndex numbers distinct fixed-width ID tuples 0, 1, 2, … in order of
// first appearance: the hash table behind GROUP BY, DISTINCT,
// COUNT(DISTINCT …) and the hash-join build side. Tuples live flat in keys
// and the open-addressing table holds tuple numbers, so adding a tuple
// allocates nothing beyond amortized growth.
type tupleIndex struct {
	width int
	count int
	keys  []rdf.ID // tuple i is keys[i*width:(i+1)*width]
	table []int32  // tuple number + 1; 0 = empty; len is a power of two
}

func newTupleIndex(width, capTuples int) *tupleIndex {
	size := 16
	for size < capTuples*2 {
		size *= 2
	}
	return &tupleIndex{width: width, keys: make([]rdf.ID, 0, capTuples*width), table: make([]int32, size)}
}

func hashTuple(key []rdf.ID) uint64 {
	h := uint64(14695981039346656037)
	for _, id := range key {
		h = (h ^ uint64(id)) * 1099511628211
	}
	h ^= h >> 32
	h *= 0x9E3779B97F4A7C15
	return h ^ h>>29
}

func (t *tupleIndex) tuple(i int) []rdf.ID { return t.keys[i*t.width : (i+1)*t.width] }

// find returns the number of the tuple, or -1 when it was never added.
func (t *tupleIndex) find(key []rdf.ID) int {
	mask := uint64(len(t.table) - 1)
	for p := hashTuple(key) & mask; t.table[p] != 0; p = (p + 1) & mask {
		if i := int(t.table[p] - 1); slices.Equal(t.tuple(i), key) {
			return i
		}
	}
	return -1
}

// add returns the number of the tuple, adding it when new.
func (t *tupleIndex) add(key []rdf.ID) (idx int, fresh bool) {
	if i := t.find(key); i >= 0 {
		return i, false
	}
	t.keys = append(t.keys, key...)
	t.count++
	if t.count*2 > len(t.table) {
		t.table = make([]int32, len(t.table)*2)
		for i := 0; i < t.count-1; i++ {
			t.place(i)
		}
	}
	t.place(t.count - 1)
	return t.count - 1, true
}

// place enters tuple i into the table.
func (t *tupleIndex) place(i int) {
	mask := uint64(len(t.table) - 1)
	p := hashTuple(t.tuple(i)) & mask
	for t.table[p] != 0 {
		p = (p + 1) & mask
	}
	t.table[p] = int32(i + 1)
}
