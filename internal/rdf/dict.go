package rdf

import (
	"hash/maphash"
	"maps"
	"slices"
	"strings"
	"unsafe"
)

// ID is a dictionary-encoded term identifier. The zero ID is never assigned
// to a term, so it can serve as an "absent" marker.
type ID uint32

// Dict interns terms to dense integer IDs and back. The graph stores triples
// as ID three-tuples; this keeps the indexes compact and makes term equality
// a single integer compare. Dict is not safe for concurrent mutation; Graph
// serializes access with its own lock.
//
// Each term is kept once, in columns: its lexical form, and the index of its
// shape — (Kind, Datatype, Lang) — in a table of the few distinct shapes a
// graph holds (IRI, blank node, one per datatype, one per language tag).
// An open-addressed table of IDs, at most half full, finds a term's ID by
// content; Term rebuilds the struct from the columns without allocating.
// The columns only append: an issued ID's entries are never written again,
// which is what lets a TermView read them without the graph's lock.
//
// The lexical forms are bytes in pages, each allocated once and filled in
// ID order: shared pages of pageSize, and a page of its own, exactly its
// size, for a form longer than ownPage. A term keeps the position of its
// form (see form), 8 bytes, where a Go string would cost a header, an
// allocation rounded to its size class and a pointer the collector traces.
// A page never moves and its bytes below the fill mark are never written
// again, so the string Term returns is a view of the page, and it stays
// valid however many pages follow.
type Dict struct {
	pages    [][]byte // each page's header is written once, when it is added
	at       []uint64 // at[id-1] is the position of id's form in pages
	cur      int      // the shared page being filled: pages[cur]
	room     int      // bytes left in pages[cur]; 0 before the first
	shapeOf  []uint32 // shapeOf[id-1] indexes shapes
	shapes   []Term   // distinct (Kind, Datatype, Lang), Value always ""
	shapeIDs map[Term]uint32
	table    []ID // id, or 0 for an empty slot; len is a power of two
	seed     maphash.Seed
	literals int // how many terms are literals, for Stats
}

const (
	// pageSize is the size of a shared page of lexical forms: what a graph
	// of a few terms (a CONSTRUCT answer, an answer loaded as a dataset)
	// holds of them.
	pageSize = 4 << 10
	// ownPage is the longest form a shared page takes: a page left because
	// the next form does not fit wastes less than this.
	ownPage = pageSize / 4
	// ownLen is the length field of a form that is its whole page.
	ownLen = 1<<16 - 1
)

// form returns the lexical form at a position: the page's index in the high
// 32 bits, the offset in the page in the next 16 and the length in the low
// 16, or ownLen for a form that fills an own page. The string is a view of
// the page, whose bytes below the fill mark are never written again.
func form(pages [][]byte, at uint64) string {
	pg := pages[at>>32]
	n := int(at & ownLen)
	if n == ownLen {
		n = len(pg)
	}
	return unsafe.String((*byte)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(pg)), at>>16&(pageSize-1))), n)
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{
		shapes:   []Term{{Kind: KindIRI}, {Kind: KindBlank}},
		shapeIDs: map[Term]uint32{{Kind: KindIRI}: 0, {Kind: KindBlank}: 1},
		table:    make([]ID, 16),
		seed:     maphash.MakeSeed(),
	}
}

// Grow pre-sizes the dictionary for n upcoming Intern calls, so bulk
// loaders (the snapshot reader) pay one allocation instead of O(log n)
// regrowths.
func (d *Dict) Grow(n int) {
	if n <= len(d.at) {
		return
	}
	d.at = slices.Grow(d.at, n-len(d.at))
	d.shapeOf = slices.Grow(d.shapeOf, n-len(d.shapeOf))
	size := len(d.table)
	for size < 2*n {
		size *= 2
	}
	if size > len(d.table) {
		d.rehash(size)
	}
}

// shapeID returns the index of t's shape, or false when no interned term
// has it.
func (d *Dict) shapeID(t Term) (uint32, bool) {
	if (t.Kind == KindIRI || t.Kind == KindBlank) && t.Datatype == "" && t.Lang == "" {
		return uint32(t.Kind), true // the two shapes NewDict seeds
	}
	s, ok := d.shapeIDs[Term{Kind: t.Kind, Datatype: t.Datatype, Lang: t.Lang}]
	return s, ok
}

// hash is the table hash of a term: its lexical form mixed with its shape.
func (d *Dict) hash(value string, shape uint32) uint64 {
	return maphash.String(d.seed, value) ^ uint64(shape)*0x9E3779B97F4A7C15
}

// find returns the ID of the term with lexical form value and the given
// shape when interned, else 0 and the empty slot where it would go.
func (d *Dict) find(value string, shape uint32) (ID, int) {
	mask := uint64(len(d.table) - 1)
	p := d.hash(value, shape) & mask
	for ; d.table[p] != 0; p = (p + 1) & mask {
		if id := d.table[p]; d.shapeOf[id-1] == shape && form(d.pages, d.at[id-1]) == value {
			return id, int(p)
		}
	}
	return 0, int(p)
}

// rehash rebuilds the table at size slots.
func (d *Dict) rehash(size int) {
	d.table = make([]ID, size)
	mask := uint64(size - 1)
	for i, at := range d.at {
		p := d.hash(form(d.pages, at), d.shapeOf[i]) & mask
		for d.table[p] != 0 {
			p = (p + 1) & mask
		}
		d.table[p] = ID(i + 1)
	}
}

// Intern returns the ID for t, assigning a fresh one if t is new.
func (d *Dict) Intern(t Term) ID { return d.intern(t.Value, d.shape(t)) }

// shape returns the index of t's shape, adding the shape when it is new.
// A new shape keeps copies of the datatype and tag, so t's strings may view
// a caller's buffer.
func (d *Dict) shape(t Term) uint32 {
	shape, ok := d.shapeID(t)
	if !ok {
		shape = uint32(len(d.shapes))
		key := Term{Kind: t.Kind, Datatype: strings.Clone(t.Datatype), Lang: strings.Clone(t.Lang)}
		d.shapes = append(d.shapes, key)
		d.shapeIDs[key] = shape
	}
	return shape
}

// internLex is Intern for a term given as its lexical form and shape. The
// bytes are viewed as a string to find the term; a new term's form is
// copied into the pages.
func (d *Dict) internLex(value []byte, shape uint32) ID {
	return d.intern(unsafe.String(unsafe.SliceData(value), len(value)), shape)
}

func (d *Dict) intern(value string, shape uint32) ID {
	id, slot := d.find(value, shape)
	if id != 0 {
		return id
	}
	d.at = append(d.at, d.store(value))
	d.shapeOf = append(d.shapeOf, shape)
	if d.shapes[shape].Kind == KindLiteral {
		d.literals++
	}
	id = ID(len(d.at))
	if 2*len(d.at) > len(d.table) {
		d.rehash(2 * len(d.table))
	} else {
		d.table[slot] = id
	}
	return id
}

// store copies a new form into the pages and returns its position: into
// the shared page being filled, or a fresh one when it does not fit (an
// empty form needs an offset inside the page too), or its own page when it
// is longer than ownPage.
func (d *Dict) store(value string) uint64 {
	n := len(value)
	if n > ownPage {
		d.pages = append(d.pages, []byte(value))
		return uint64(len(d.pages)-1)<<32 | ownLen
	}
	if max(n, 1) > d.room {
		d.pages = append(d.pages, make([]byte, pageSize))
		d.cur, d.room = len(d.pages)-1, pageSize
	}
	pg := d.pages[d.cur]
	off := len(pg) - d.room
	d.room -= copy(pg[off:], value)
	return uint64(d.cur)<<32 | uint64(off)<<16 | uint64(n)
}

// Lookup returns the ID for t, or 0 if t has never been interned.
func (d *Dict) Lookup(t Term) (ID, bool) {
	shape, ok := d.shapeID(t)
	if !ok {
		return 0, false
	}
	id, _ := d.find(t.Value, shape)
	return id, id != 0
}

// Term returns the term for a valid ID. It panics on an ID the dictionary
// never issued, which always indicates a programming error. It builds the
// struct itself rather than through termInto, which would take it over the
// inliner's budget.
func (d *Dict) Term(id ID) Term {
	s := &d.shapes[d.shapeOf[id-1]]
	return Term{Kind: s.Kind, Value: form(d.pages, d.at[id-1]), Datatype: s.Datatype, Lang: s.Lang}
}

// termInto writes the term for id into *dst field by field. The graph's
// decoders (TermOf, TermsOf, Match, column) use it: a Term built whole on
// the stack and then copied into place is reloaded in wider words than it
// was stored in, which defeats the CPU's store forwarding — it made Match
// a third slower per triple.
func (d *Dict) termInto(dst *Term, id ID) {
	s := &d.shapes[d.shapeOf[id-1]]
	dst.Kind, dst.Value, dst.Datatype, dst.Lang = s.Kind, form(d.pages, d.at[id-1]), s.Datatype, s.Lang
}

// Len returns the number of distinct interned terms.
func (d *Dict) Len() int { return len(d.at) }

// clone returns an independent copy that assigns the same IDs. It shares
// the pages no form will be written to again and copies the one being
// filled, which the two dictionaries go on to fill apart.
func (d *Dict) clone() *Dict {
	pages := slices.Clone(d.pages)
	if d.room > 0 {
		pages[d.cur] = slices.Clone(d.pages[d.cur])
	}
	return &Dict{
		pages:    pages,
		at:       slices.Clone(d.at),
		cur:      d.cur,
		room:     d.room,
		shapeOf:  slices.Clone(d.shapeOf),
		shapes:   slices.Clone(d.shapes),
		shapeIDs: maps.Clone(d.shapeIDs),
		table:    slices.Clone(d.table),
		seed:     d.seed,
		literals: d.literals,
	}
}
