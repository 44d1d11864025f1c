package rdf

import (
	"hash/maphash"
	"maps"
	"slices"
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
type Dict struct {
	values   []string // values[id-1] is the lexical form of id
	shapeOf  []uint32 // shapeOf[id-1] indexes shapes
	shapes   []Term   // distinct (Kind, Datatype, Lang), Value always ""
	shapeIDs map[Term]uint32
	table    []ID // id, or 0 for an empty slot; len is a power of two
	seed     maphash.Seed
	literals int // how many terms are literals, for Stats
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
	if n <= len(d.values) {
		return
	}
	d.values = slices.Grow(d.values, n-len(d.values))
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
		if id := d.table[p]; d.shapeOf[id-1] == shape && d.values[id-1] == value {
			return id, int(p)
		}
	}
	return 0, int(p)
}

// rehash rebuilds the table at size slots.
func (d *Dict) rehash(size int) {
	d.table = make([]ID, size)
	mask := uint64(size - 1)
	for i, v := range d.values {
		p := d.hash(v, d.shapeOf[i]) & mask
		for d.table[p] != 0 {
			p = (p + 1) & mask
		}
		d.table[p] = ID(i + 1)
	}
}

// Intern returns the ID for t, assigning a fresh one if t is new.
func (d *Dict) Intern(t Term) ID { return d.intern(t.Value, d.shape(t)) }

// shape returns the index of t's shape, adding the shape when it is new.
func (d *Dict) shape(t Term) uint32 {
	shape, ok := d.shapeID(t)
	if !ok {
		shape = uint32(len(d.shapes))
		key := Term{Kind: t.Kind, Datatype: t.Datatype, Lang: t.Lang}
		d.shapes = append(d.shapes, key)
		d.shapeIDs[key] = shape
	}
	return shape
}

// internLex is Intern for a term given as its lexical form and shape. The
// bytes are viewed as a string only to find the term; a new term's form is
// copied, once, into the string the dictionary keeps.
func (d *Dict) internLex(value []byte, shape uint32) ID {
	if id, _ := d.find(unsafe.String(unsafe.SliceData(value), len(value)), shape); id != 0 {
		return id
	}
	return d.intern(string(value), shape)
}

func (d *Dict) intern(value string, shape uint32) ID {
	id, slot := d.find(value, shape)
	if id != 0 {
		return id
	}
	d.values = append(d.values, value)
	d.shapeOf = append(d.shapeOf, shape)
	if d.shapes[shape].Kind == KindLiteral {
		d.literals++
	}
	id = ID(len(d.values))
	if 2*len(d.values) > len(d.table) {
		d.rehash(2 * len(d.table))
	} else {
		d.table[slot] = id
	}
	return id
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
// never issued, which always indicates a programming error.
func (d *Dict) Term(id ID) (t Term) {
	d.termInto(&t, id)
	return t
}

// termInto writes the term for id into *dst field by field. The graph's
// decoders (TermOf, TermsOf, Match, column) use it: a Term built whole on
// the stack and then copied into place is reloaded in wider words than it
// was stored in, which defeats the CPU's store forwarding — it made Match
// a third slower per triple.
func (d *Dict) termInto(dst *Term, id ID) {
	s := &d.shapes[d.shapeOf[id-1]]
	dst.Kind, dst.Value, dst.Datatype, dst.Lang = s.Kind, d.values[id-1], s.Datatype, s.Lang
}

// Len returns the number of distinct interned terms.
func (d *Dict) Len() int { return len(d.values) }

// clone returns an independent copy that assigns the same IDs.
func (d *Dict) clone() *Dict {
	return &Dict{
		values:   slices.Clone(d.values),
		shapeOf:  slices.Clone(d.shapeOf),
		shapes:   slices.Clone(d.shapes),
		shapeIDs: maps.Clone(d.shapeIDs),
		table:    slices.Clone(d.table),
		seed:     d.seed,
		literals: d.literals,
	}
}
