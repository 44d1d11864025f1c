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

// grammarDoc puts a term in object position on line 2 of a document.
func grammarDoc(obj string) string {
	return "@prefix e: <http://e/> .\n<http://e/s> <http://e/p> " + obj + " .\n"
}

// grammarTerms pins the term each numeric, language-tag and prefixed-name
// form in object position produces.
var grammarTerms = []struct {
	obj  string
	want Term
}{
	{"12", NewTyped("12", XSDInteger)},
	{"+5", NewTyped("+5", XSDInteger)},
	{"-0", NewTyped("-0", XSDInteger)},
	{"1.5", NewTyped("1.5", XSDDecimal)},
	{".5", NewTyped(".5", XSDDecimal)},
	{"+.5", NewTyped("+.5", XSDDecimal)},
	{"1.e5", NewTyped("1.e5", XSDDouble)},
	{"-4.2e3", NewTyped("-4.2e3", XSDDouble)},
	{"1E+3", NewTyped("1E+3", XSDDouble)},
	{".5e-1", NewTyped(".5e-1", XSDDouble)},
	{"7.0", NewTyped("7.0", XSDDecimal)},
	{`"x"@en`, NewLangString("x", "en")},
	{`"x"@EN-gb-1996`, NewLangString("x", "EN-gb-1996")},
	{"e:b%20c", NewIRI("http://e/b%20c")},
	{"e:b.c", NewIRI("http://e/b.c")},
	{`"\u00e9\U0001F600"`, NewString("\u00e9\U0001F600")},
	{"true", NewTyped("true", XSDBoolean)},
}

func TestGrammarTerms(t *testing.T) {
	for _, tc := range grammarTerms {
		g, err := LoadTurtleString(grammarDoc(tc.obj))
		if err != nil {
			t.Errorf("%s: %v", tc.obj, err)
			continue
		}
		if got := g.Object(NewIRI("http://e/s"), NewIRI("http://e/p")); got != tc.want || g.Len() != 1 {
			t.Errorf("%s: got %v (%d triples), want %v", tc.obj, got, g.Len(), tc.want)
		}
	}
}

// badDocs are documents every loader must reject, each with the line its
// ParseError names.
var badDocs = []struct {
	doc  string
	line int
}{
	{`<http://e/s> <http://e/p>`, 1},           // missing object and dot
	{`<http://e/s> <http://e/p> "x"`, 1},       // missing dot
	{`ex:a ex:p ex:b .`, 1},                    // undefined prefix
	{`@prefix ex <http://e/> . ex:a a 1 .`, 1}, // malformed prefix decl
	{`<http://e/s> <http://e/p> "unterminated .`, 1},
	{`@unknown <x> .`, 1},
	{"@prefix e: <http://e/>", 1},
	{"@base <http://e/>\n", 2},
	{grammarDoc("12-3"), 2},    // INTEGER is [+-]?[0-9]+
	{grammarDoc("+-5"), 2},     // one sign
	{grammarDoc("1e"), 2},      // EXPONENT needs digits
	{grammarDoc("1.5e+"), 2},   // ... after its sign too
	{grammarDoc("-"), 2},       // a sign alone
	{grammarDoc(`"x"@`), 2},    // LANGTAG is not empty
	{grammarDoc(`"x"@1en`), 2}, // and starts with letters
	{grammarDoc(`"x"@en-`), 2}, // a subtag is not empty
	{grammarDoc(`"x"@en_US`), 2},
	{grammarDoc("e:b%zz"), 2}, // PERCENT is '%' HEX HEX
	{grammarDoc("e:b%2"), 2},
	{grammarDoc("\"a\xffb\""), 2}, // not UTF-8
	{grammarDoc("e:b\xc3"), 2},
	{"<http://e/s> <http://e/p> <http://e/o> . # \xff\n", 1},
}

func TestParseErrors(t *testing.T) {
	for _, tc := range badDocs {
		_, err := LoadTurtleString(tc.doc)
		pe, ok := err.(*ParseError)
		if !ok {
			t.Errorf("%q: error %v (%T), want a *ParseError", tc.doc, err, err)
			continue
		}
		if pe.Line != tc.line {
			t.Errorf("%q: %v, want line %d", tc.doc, pe, tc.line)
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
