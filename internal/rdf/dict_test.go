package rdf

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// Pools the dictionary streams draw from. They put one lexical form under
// every shape, "" beside xsd:string beside a language tag, tags that differ
// only by case, empty values, and terms that differ only in datatype.
var (
	dictValues    = []string{"", "a", "A", "a ", "http://e/a", "http://e/A", "1", "01", "x\x00y"}
	dictDatatypes = []string{"", XSDString, RDFLangString, XSDInteger, XSDDecimal, "http://e/dt", "http://e/DT"}
	dictLangs     = []string{"", "en", "EN", "En", "en-US", "en-us", "de"}
)

// dictEdges are lexical forms at the edges of a page and of the longest form
// a shared page takes (ownPage), and forms of two- and three-byte runes just
// under that longest, which a page that fills byte by byte would cut inside
// a rune.
var dictEdges = []string{
	"", "é",
	strings.Repeat("a", ownPage-1), strings.Repeat("b", ownPage), strings.Repeat("c", ownPage+1),
	strings.Repeat("d", pageSize-1), strings.Repeat("e", pageSize), strings.Repeat("f", pageSize+1),
	strings.Repeat("g", 4*pageSize),
	"h" + strings.Repeat("é", ownPage/2-1), strings.Repeat("€", ownPage/3), "i" + strings.Repeat("€", ownPage/3-1),
}

// dictTerm decodes one term from three bytes: b0 holds the kind (low two
// bits, 3 a literal too) and the datatype (next three), b1 the value (a
// pooled one, a page edge, or a numbered one) and b2 the language tag. Most IRIs and blank nodes carry no datatype or tag, as
// parsers make them; one in eight carries both (b0's top three bits set),
// which Term equality distinguishes as well.
func dictTerm(b0, b1, b2 byte) Term {
	t := Term{Kind: TermKind(min(b0&3, 2))}
	switch {
	case b1 < 128:
		t.Value = dictValues[int(b1)%len(dictValues)]
	case int(b1) < 128+len(dictEdges):
		t.Value = dictEdges[b1-128]
	default:
		t.Value = "v" + strconv.Itoa(int(b1))
	}
	if t.Kind == KindLiteral || b0&0xe0 == 0xe0 {
		t.Datatype = dictDatatypes[int(b0>>2&7)%len(dictDatatypes)]
		if b2 < 128 {
			t.Lang = dictLangs[int(b2)%len(dictLangs)]
		} else {
			t.Lang = "l" + strconv.Itoa(int(b2))
		}
	}
	return t
}

// checkDictOps runs a stream of operations, four bytes each, through the
// dictionary and the reference one: intern, lookup (most of them of terms
// never interned) and, rarely, Grow. Every answer must agree: the same ID
// from every Intern, the same Lookup hit or miss, the same Term(id), Len and
// literal count.
func checkDictOps(t *testing.T, ops []byte) {
	t.Helper()
	d, ref := NewDict(), newRefDict()
	for i := 0; i+4 <= len(ops); i += 4 {
		term := dictTerm(ops[i+1], ops[i+2], ops[i+3])
		switch ops[i] % 8 {
		case 0, 1, 2, 3:
			got, want := d.Intern(term), ref.Intern(term)
			if got != want {
				t.Fatalf("op %d: Intern(%#v) = %d, reference %d", i/4, term, got, want)
			}
			if back := d.Term(got); back != term {
				t.Fatalf("op %d: Term(%d) = %#v, interned %#v", i/4, got, back, term)
			}
		case 4, 5, 6:
			got, ok := d.Lookup(term)
			want, wantOK := ref.Lookup(term)
			if got != want || ok != wantOK {
				t.Fatalf("op %d: Lookup(%#v) = %d %v, reference %d %v", i/4, term, got, ok, want, wantOK)
			}
		case 7:
			d.Grow(d.Len() + int(ops[i+1]))
		}
	}
	checkSameDict(t, d, ref)
}

// checkSameDict compares every ID both dictionaries issued.
func checkSameDict(t *testing.T, d *Dict, ref *refDict) {
	t.Helper()
	if d.Len() != ref.Len() || d.literals != ref.literals {
		t.Fatalf("Len %d, literals %d; reference %d, %d", d.Len(), d.literals, ref.Len(), ref.literals)
	}
	for id := ID(1); int(id) <= ref.Len(); id++ {
		want := ref.Term(id)
		if got := d.Term(id); got != want {
			t.Fatalf("Term(%d) = %#v, reference %#v", id, got, want)
		}
		if got, ok := d.Lookup(want); got != id || !ok {
			t.Fatalf("Lookup(Term(%d)) = %d %v", id, got, ok)
		}
	}
}

func TestDictMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for stream := 0; stream < 200; stream++ {
		ops := make([]byte, 4*(1+rng.Intn(2000)))
		rng.Read(ops)
		checkDictOps(t, ops)
	}

	// Every lexical form under every shape the pools hold: looked up while
	// absent, interned, interned again, and looked up again.
	var ops []byte
	for _, op := range []byte{4, 0, 0, 4} {
		for v := 0; v < len(dictValues); v++ {
			for dt := 0; dt < len(dictDatatypes); dt++ {
				for lang := 0; lang < len(dictLangs); lang++ {
					for _, kind := range []byte{0, 1, 2, 0xe0, 0xe1} {
						ops = append(ops, op, kind|byte(dt<<2), byte(v), byte(lang))
					}
				}
			}
		}
	}
	checkDictOps(t, ops)

	// More distinct language tags than a 16-bit shape index could number.
	d, ref := NewDict(), newRefDict()
	for i := 0; i < 70_100; i++ {
		term := NewLangString("chat", "x-"+strconv.Itoa(i))
		if got, want := d.Intern(term), ref.Intern(term); got != want {
			t.Fatalf("Intern(%#v) = %d, reference %d", term, got, want)
		}
		if i%7 == 0 {
			absent := NewLangString("chat", "y-"+strconv.Itoa(i))
			if id, ok := d.Lookup(absent); ok {
				t.Fatalf("Lookup of absent %#v = %d", absent, id)
			}
		}
	}
	checkSameDict(t, d, ref)

	// Pages filled to their last byte, forms of every page edge, and forms
	// of multi-byte runes that fill a page at offsets inside a rune: each
	// form lies whole in one page, and every rune decodes.
	ops = ops[:0]
	for round := 0; round < 3; round++ {
		for e := range dictEdges {
			for lang := 0; lang < len(dictLangs); lang++ {
				ops = append(ops, 0, byte(3|round<<2), byte(128+e), byte(lang))
			}
			ops = append(ops, 0, 0, byte(200+e), 0) // a short IRI between, to shift the fill
		}
	}
	d, ref = NewDict(), newRefDict()
	for i := 0; i < 4*pageSize/ownPage; i++ { // the first four pages, exactly full of forms of ownPage bytes
		term := NewLangString(dictEdges[3], "x-"+strconv.Itoa(i))
		d.Intern(term)
		ref.Intern(term)
	}
	if len(d.pages) != 4 || d.room != 0 {
		t.Fatalf("%d forms of %d bytes: %d pages, %d bytes left; want four full pages", 4*pageSize/ownPage, ownPage, len(d.pages), d.room)
	}
	for i := 0; i+4 <= len(ops); i += 4 {
		term := dictTerm(ops[i+1], ops[i+2], ops[i+3])
		if got, want := d.Intern(term), ref.Intern(term); got != want {
			t.Fatalf("Intern(%d-byte form) = %d, reference %d", len(term.Value), got, want)
		}
	}
	checkSameDict(t, d, ref)
	own, moved := 0, 0
	end := map[uint64]int{} // the fill of each shared page: where its last form ends
	for id := ID(1); int(id) <= d.Len(); id++ {
		at, v := d.at[id-1], d.Term(id).Value
		if !utf8.ValidString(v) {
			t.Fatalf("Term(%d) holds invalid UTF-8", id)
		}
		page, off := at>>32, int(at>>16&(pageSize-1))
		switch {
		case len(v) > ownPage && (at&ownLen != ownLen || len(d.pages[page]) != len(v)):
			t.Fatalf("the %d-byte form of %d is not its own page", len(v), id)
		case len(v) > ownPage:
			own++
		case off+len(v) > len(d.pages[page]):
			t.Fatalf("the %d-byte form of %d crosses its page's end", len(v), id)
		default:
			if prev, ok := end[page-1]; ok && off == 0 && len(v) > utf8.RuneCountInString(v) && prev+len(v) > len(d.pages[page-1]) && prev < len(d.pages[page-1]) {
				moved++ // a form of multi-byte runes that began a page when the last one still had room
			}
			end[page] = max(end[page], off+len(v))
		}
	}
	if len(end) < 8 || own == 0 || moved == 0 || end[3] != pageSize {
		t.Fatalf("%d shared pages (the fourth filled to %d), %d own pages, %d multi-byte forms moved to a new page: the edges were not reached", len(end), end[3], own, moved)
	}
}

// TestFewTermsHoldOnePage pins what a graph of a few terms — a CONSTRUCT or
// DESCRIBE answer, an answer loaded as a dataset — holds of lexical forms:
// one page of 4 KiB. With 64 KiB pages, a seven-triple CONSTRUCT allocated
// 73 KB against the 7 KB it allocated with a Go string a form.
func TestFewTermsHoldOnePage(t *testing.T) {
	d := NewDict()
	for i := range 40 {
		d.Intern(NewIRI("http://example.org/products#laptop" + strconv.Itoa(i)))
	}
	held := 0
	for _, pg := range d.pages {
		held += cap(pg)
	}
	if held > 4<<10 {
		t.Fatalf("40 short forms hold %d bytes of pages, want at most 4 KiB", held)
	}
}

// FuzzDict holds the dictionary to the reference on arbitrary operation
// streams (four bytes an operation, see checkDictOps).
func FuzzDict(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1, 1, 0, 0, 2, 1, 0, 4, 2, 1, 1})
	f.Add([]byte{0, 2, 0, 0, 0, 6, 0, 0, 0, 10, 0, 1, 0, 10, 0, 2, 7, 200, 0, 0, 4, 14, 0, 0})
	f.Add([]byte{0, 0xe0, 3, 3, 0, 0, 3, 0, 4, 0xe0, 3, 3, 0, 0x82, 200, 200})
	var edges []byte // every page edge, twice over, between short forms
	for range 2 {
		for e := range dictEdges {
			edges = append(edges, 0, 3, byte(128+e), byte(e), 0, 0, byte(e), 0, 4, 3, byte(128+e), byte(e+1))
		}
	}
	f.Add(edges)
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkDictOps(t, ops)
	})
}
