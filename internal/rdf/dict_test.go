package rdf

import (
	"math/rand"
	"strconv"
	"testing"
)

// Pools the dictionary streams draw from. They put one lexical form under
// every shape, "" beside xsd:string beside a language tag, tags that differ
// only by case, empty values, and terms that differ only in datatype.
var (
	dictValues    = []string{"", "a", "A", "a ", "http://e/a", "http://e/A", "1", "01", "x\x00y"}
	dictDatatypes = []string{"", XSDString, RDFLangString, XSDInteger, XSDDecimal, "http://e/dt", "http://e/DT"}
	dictLangs     = []string{"", "en", "EN", "En", "en-US", "en-us", "de"}
)

// dictTerm decodes one term from three bytes: b0 holds the kind (low two
// bits, 3 a literal too) and the datatype (next three), b1 the value and b2
// the language tag. Most IRIs and blank nodes carry no datatype or tag, as
// parsers make them; one in eight carries both (b0's top three bits set),
// which Term equality distinguishes as well.
func dictTerm(b0, b1, b2 byte) Term {
	t := Term{Kind: TermKind(min(b0&3, 2))}
	if b1 < 128 {
		t.Value = dictValues[int(b1)%len(dictValues)]
	} else {
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
}

// FuzzDict holds the dictionary to the reference on arbitrary operation
// streams (four bytes an operation, see checkDictOps).
func FuzzDict(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1, 1, 0, 0, 2, 1, 0, 4, 2, 1, 1})
	f.Add([]byte{0, 2, 0, 0, 0, 6, 0, 0, 0, 10, 0, 1, 0, 10, 0, 2, 7, 200, 0, 0, 4, 14, 0, 0})
	f.Add([]byte{0, 0xe0, 3, 3, 0, 0, 3, 0, 4, 0xe0, 3, 3, 0, 0x82, 200, 200})
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkDictOps(t, ops)
	})
}
