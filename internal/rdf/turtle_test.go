package rdf

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseNTriples(t *testing.T) {
	doc := `<http://e/s> <http://e/p> <http://e/o> .
<http://e/s> <http://e/q> "plain" .
<http://e/s> <http://e/q> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://e/s> <http://e/q> "bonjour"@fr .
_:b1 <http://e/p> _:b2 .
`
	g, err := LoadTurtleString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 5 {
		t.Fatalf("Len = %d, want 5", g.Len())
	}
	if !g.Has(Triple{NewIRI("http://e/s"), NewIRI("http://e/q"), NewInteger(42)}) {
		t.Error("typed literal missing")
	}
	if !g.Has(Triple{NewIRI("http://e/s"), NewIRI("http://e/q"), NewLangString("bonjour", "fr")}) {
		t.Error("lang literal missing")
	}
	if !g.Has(Triple{NewBlank("b1"), NewIRI("http://e/p"), NewBlank("b2")}) {
		t.Error("blank nodes missing")
	}
}

func TestParseTurtlePrefixesAndLists(t *testing.T) {
	doc := `@prefix ex: <http://ex.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:laptop1 a ex:Laptop ;
    ex:price 900 ;
    ex:rating 4.5 ;
    ex:inStock true ;
    ex:weight 1.2e1 ;
    ex:manufacturer ex:dell , ex:oem1 ;
    ex:releaseDate "2021-06-10"^^xsd:date .
`
	g, err := LoadTurtleString(doc)
	if err != nil {
		t.Fatal(err)
	}
	s := NewIRI("http://ex.org/laptop1")
	wants := []Triple{
		{s, NewIRI(RDFType), NewIRI("http://ex.org/Laptop")},
		{s, NewIRI("http://ex.org/price"), NewInteger(900)},
		{s, NewIRI("http://ex.org/rating"), NewTyped("4.5", XSDDecimal)},
		{s, NewIRI("http://ex.org/inStock"), NewTyped("true", XSDBoolean)},
		{s, NewIRI("http://ex.org/weight"), NewTyped("1.2e1", XSDDouble)},
		{s, NewIRI("http://ex.org/manufacturer"), NewIRI("http://ex.org/dell")},
		{s, NewIRI("http://ex.org/manufacturer"), NewIRI("http://ex.org/oem1")},
		{s, NewIRI("http://ex.org/releaseDate"), NewTyped("2021-06-10", XSDDate)},
	}
	for _, w := range wants {
		if !g.Has(w) {
			t.Errorf("missing triple %v\ngraph: %v", w, g.Triples())
		}
	}
	if g.Len() != len(wants) {
		t.Errorf("Len = %d, want %d", g.Len(), len(wants))
	}
}

func TestParseSparqlStyleDirectives(t *testing.T) {
	doc := `PREFIX ex: <http://ex.org/>
BASE <http://base.org/>
ex:a ex:p <rel> .
`
	g, err := LoadTurtleString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Has(Triple{NewIRI("http://ex.org/a"), NewIRI("http://ex.org/p"), NewIRI("http://base.org/rel")}) {
		t.Errorf("base resolution failed: %v", g.Triples())
	}
}

func TestParseBlankPropertyList(t *testing.T) {
	doc := `@prefix ex: <http://ex.org/> .
ex:a ex:knows [ ex:name "Bob" ; ex:age 30 ] .
`
	g, err := LoadTurtleString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 {
		t.Fatalf("Len = %d, want 3: %v", g.Len(), g.Triples())
	}
	// The blank node must connect the three triples.
	objs := g.Objects(NewIRI("http://ex.org/a"), NewIRI("http://ex.org/knows"))
	if len(objs) != 1 || !objs[0].IsBlank() {
		t.Fatalf("objs = %v", objs)
	}
	if g.Object(objs[0], NewIRI("http://ex.org/name")) != NewString("Bob") {
		t.Error("nested property missing")
	}
}

func TestParseCollection(t *testing.T) {
	doc := `@prefix ex: <http://ex.org/> .
ex:a ex:items ( ex:x ex:y ) .
ex:b ex:items ( ) .
`
	g, err := LoadTurtleString(doc)
	if err != nil {
		t.Fatal(err)
	}
	// empty collection is rdf:nil
	if g.Object(NewIRI("http://ex.org/b"), NewIRI("http://ex.org/items")) != NewIRI(RDFNil) {
		t.Error("empty collection must be rdf:nil")
	}
	// non-empty: follow first/rest
	head := g.Object(NewIRI("http://ex.org/a"), NewIRI("http://ex.org/items"))
	if g.Object(head, NewIRI(RDFFirst)) != NewIRI("http://ex.org/x") {
		t.Error("first item wrong")
	}
	rest := g.Object(head, NewIRI(RDFRest))
	if g.Object(rest, NewIRI(RDFFirst)) != NewIRI("http://ex.org/y") {
		t.Error("second item wrong")
	}
	if g.Object(rest, NewIRI(RDFRest)) != NewIRI(RDFNil) {
		t.Error("list not nil-terminated")
	}
}

func TestParseComments(t *testing.T) {
	doc := `# leading comment
@prefix ex: <http://ex.org/> . # trailing comment
ex:a ex:p ex:b . # done
`
	g, err := LoadTurtleString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d", g.Len())
	}
}

func TestParseLongStrings(t *testing.T) {
	doc := "@prefix ex: <http://ex.org/> .\n" +
		"ex:a ex:p \"\"\"multi\nline \"quoted\" text\"\"\" .\n"
	g, err := LoadTurtleString(doc)
	if err != nil {
		t.Fatal(err)
	}
	want := NewString("multi\nline \"quoted\" text")
	if !g.Has(Triple{NewIRI("http://ex.org/a"), NewIRI("http://ex.org/p"), want}) {
		t.Errorf("long string parse wrong: %v", g.Triples())
	}
}

func TestParseEmptyString(t *testing.T) {
	doc := `<http://e/s> <http://e/p> "" .`
	g, err := LoadTurtleString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Has(Triple{NewIRI("http://e/s"), NewIRI("http://e/p"), NewString("")}) {
		t.Errorf("empty string literal missing: %v", g.Triples())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`<http://e/s> <http://e/p>`,           // missing object and dot
		`<http://e/s> <http://e/p> "x"`,       // missing dot
		`ex:a ex:p ex:b .`,                    // undefined prefix
		`@prefix ex <http://e/> . ex:a a 1 .`, // malformed prefix decl
		`<http://e/s> <http://e/p> "unterminated .`,
		`@unknown <x> .`,
	}
	for _, doc := range bad {
		if _, err := LoadTurtleString(doc); err == nil {
			t.Errorf("expected parse error for %q", doc)
		}
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := LoadTurtleString("<http://e/s> <http://e/p> @ .")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T, want *ParseError", err)
	}
	if pe.Line != 1 {
		t.Errorf("Line = %d, want 1", pe.Line)
	}
}

func TestTurtleRoundTrip(t *testing.T) {
	doc := `@prefix ex: <http://ex.org/> .
ex:laptop1 a ex:Laptop ;
    ex:price 900 ;
    ex:manufacturer ex:dell .
ex:dell ex:origin ex:USA .
ex:typePartition ex:property <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> .
`
	g, err := LoadTurtleString(doc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTurtle(&buf, g, map[string]string{"ex": "http://ex.org/"}); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadTurtleString(buf.String())
	if err != nil {
		t.Fatalf("reparse failed: %v\noutput:\n%s", err, buf.String())
	}
	if g2.Len() != g.Len() {
		t.Fatalf("roundtrip Len = %d, want %d\n%s", g2.Len(), g.Len(), buf.String())
	}
	for _, tr := range g.Triples() {
		if !g2.Has(tr) {
			t.Errorf("roundtrip lost %v", tr)
		}
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	g := testGraph()
	var buf bytes.Buffer
	if err := WriteNTriples(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadTurtle(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.Len() != g.Len() {
		t.Fatalf("roundtrip Len = %d, want %d", g2.Len(), g.Len())
	}
}

func TestParseStreamingSinkError(t *testing.T) {
	doc := `<http://e/a> <http://e/p> <http://e/b> .
<http://e/c> <http://e/p> <http://e/d> .`
	n := 0
	err := ParseTurtle(strings.NewReader(doc), func(Triple) error {
		n++
		return errStop
	})
	if err != errStop {
		t.Fatalf("sink error not propagated: %v", err)
	}
	if n != 1 {
		t.Fatalf("sink called %d times, want 1", n)
	}
}

var errStop = &ParseError{Msg: "stop"}

func BenchmarkParseTurtle(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("@prefix ex: <http://ex.org/> .\n")
	for i := 0; i < 1000; i++ {
		sb.WriteString("ex:s")
		sb.WriteString(string(rune('a' + i%26)))
		sb.WriteString(" ex:p ")
		sb.WriteString(`"value" .`)
		sb.WriteString("\n")
	}
	doc := sb.String()
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for b.Loop() {
		if _, err := LoadTurtleString(doc); err != nil {
			b.Fatal(err)
		}
	}
}
