package rdf

// ID is a dictionary-encoded term identifier. The zero ID is never assigned
// to a term, so it can serve as an "absent" marker.
type ID uint32

// Dict interns terms to dense integer IDs and back. The graph stores triples
// as ID three-tuples; this keeps the indexes compact and makes term equality
// a single integer compare. Dict is not safe for concurrent mutation; Graph
// serializes access with its own lock.
type Dict struct {
	toID     map[Term]ID
	toTerm   []Term // toTerm[id-1] is the term for id
	literals int    // how many of them are literals, for Stats
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{toID: make(map[Term]ID)}
}

// Grow pre-sizes the dictionary for n upcoming Intern calls, so bulk
// loaders (the snapshot reader) pay one allocation instead of O(log n)
// rehashes.
func (d *Dict) Grow(n int) {
	if n <= len(d.toTerm) {
		return
	}
	toID := make(map[Term]ID, n)
	for t, id := range d.toID {
		toID[t] = id
	}
	d.toID = toID
	toTerm := make([]Term, len(d.toTerm), n)
	copy(toTerm, d.toTerm)
	d.toTerm = toTerm
}

// Intern returns the ID for t, assigning a fresh one if t is new.
func (d *Dict) Intern(t Term) ID {
	if id, ok := d.toID[t]; ok {
		return id
	}
	d.toTerm = append(d.toTerm, t)
	if t.IsLiteral() {
		d.literals++
	}
	id := ID(len(d.toTerm))
	d.toID[t] = id
	return id
}

// Lookup returns the ID for t, or 0 if t has never been interned.
func (d *Dict) Lookup(t Term) (ID, bool) {
	id, ok := d.toID[t]
	return id, ok
}

// Term returns the term for a valid ID. It panics on an ID the dictionary
// never issued, which always indicates a programming error.
func (d *Dict) Term(id ID) Term {
	return d.toTerm[id-1]
}

// Len returns the number of distinct interned terms.
func (d *Dict) Len() int { return len(d.toTerm) }
