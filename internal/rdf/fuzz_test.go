package rdf

import (
	"bytes"
	"testing"
)

// FuzzParseTurtle drives LoadTurtle and the parser it replaced
// (turtle_ref_test.go) with arbitrary bytes: they must agree on accepting
// the input and, when they do, on the term of every ID, the triples and the
// version, never panicking. The seeds cover prefixes, literals (typed,
// tagged, escaped, multiline), lists of objects, blank nodes, comments,
// malformed fragments, and the grammar rows of turtle_test.go.
func FuzzParseTurtle(f *testing.F) {
	seeds := []string{
		"<http://e/s> <http://e/p> <http://e/o> .",
		"@prefix ex: <http://e/> .\nex:s ex:p ex:o .",
		"@prefix ex: <http://e/> .\nex:s a ex:C ; ex:p 1, 2.5, \"x\" .",
		"ex:s ex:p \"hello\"@en .",
		"<http://e/s> <http://e/p> \"2024-01-01\"^^<http://www.w3.org/2001/XMLSchema#date> .",
		"_:b1 <http://e/p> _:b2 .",
		"# comment\n<http://e/s> <http://e/p> \"a\\\"b\\n\" .",
		"<http://e/s> <http://e/p> \"\"\"multi\nline\"\"\" .",
		"@prefix : <http://e/> .\n:s :p -4.2e3 .",
		"@prefix ex: <http://e/",
		"<s> <p> .",
		"\"dangling",
		"",
		"\x00\xfe@prefix",
	}
	for _, tc := range grammarTerms {
		seeds = append(seeds, grammarDoc(tc.obj))
	}
	for _, tc := range badDocs {
		seeds = append(seeds, tc.doc)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if d := diffLoad(src, false); d != "" {
			t.Fatal(d)
		}
	})
}

// FuzzReadBinary drives the snapshot reader with arbitrary bytes: any input
// must produce a graph or an error, never a panic or hang. Seeds cover a
// valid snapshot, every truncation point of it, a trailing byte, an empty
// snapshot, a bad version byte, and raw junk.
func FuzzReadBinary(f *testing.F) {
	g := MustLoadTurtle(`@prefix ex: <http://e/> .
ex:a a ex:Thing ; ex:label "x"@en ; ex:n 42 .
ex:b ex:knows ex:a .`)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	for _, cut := range []int{0, 3, 4, 5, 6, len(valid) / 2, len(valid) - 1} {
		if cut < len(valid) {
			f.Add(valid[:cut])
		}
	}
	f.Add(append(append([]byte{}, valid...), 0x00))
	var empty bytes.Buffer
	if err := NewGraph().WriteBinary(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte("RDFA\x63"))
	f.Add([]byte("not a snapshot"))
	f.Fuzz(func(t *testing.T, data []byte) {
		back, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted inputs must round-trip to the same canonical bytes.
		var out bytes.Buffer
		if err := back.WriteBinary(&out); err != nil {
			t.Fatalf("re-serializing accepted snapshot: %v", err)
		}
		if data[4] == binaryVersion && !bytes.Equal(out.Bytes(), data) {
			t.Fatal("accepted v2 snapshot did not round-trip byte-identically")
		}
	})
}
