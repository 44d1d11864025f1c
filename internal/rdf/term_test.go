package rdf

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTermKinds(t *testing.T) {
	iri := NewIRI("http://ex.org/a")
	if !iri.IsIRI() || iri.IsBlank() || iri.IsLiteral() || !iri.IsResource() {
		t.Errorf("IRI kind predicates wrong: %+v", iri)
	}
	b := NewBlank("b1")
	if !b.IsBlank() || !b.IsResource() || b.IsIRI() {
		t.Errorf("blank kind predicates wrong: %+v", b)
	}
	l := NewString("hi")
	if !l.IsLiteral() || l.IsResource() {
		t.Errorf("literal kind predicates wrong: %+v", l)
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewIRI("http://ex.org/a"), "<http://ex.org/a>"},
		{NewBlank("x"), "_:x"},
		{NewString("hi"), `"hi"`},
		{NewLangString("hi", "en"), `"hi"@en`},
		{NewInteger(42), `"42"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{NewString(`a"b\c`), `"a\"b\\c"`},
		{NewString("a\nb\tc"), `"a\nb\tc"`},
		{NewBool(true), `"true"^^<http://www.w3.org/2001/XMLSchema#boolean>`},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.term, got, c.want)
		}
	}
}

// TestTermSPARQL: numbers and booleans with a valid lexical form are written
// bare; every other term, one with an invalid lexical form included, as
// String writes it.
func TestTermSPARQL(t *testing.T) {
	const integer, decimal = `^^<http://www.w3.org/2001/XMLSchema#integer>`, `^^<http://www.w3.org/2001/XMLSchema#decimal>`
	cases := []struct {
		term Term
		want string
	}{
		{NewInteger(42), "42"},
		{NewInteger(-7), "-7"},
		{NewTyped("+7", XSDInteger), "+7"},
		{NewDecimal(1500), "1500"},
		{NewDecimal(-2.5), "-2.5"},
		{NewTyped(".5", XSDDecimal), ".5"},
		{NewBool(false), "false"},
		{NewTyped("1) || (true", XSDInteger), `"1) || (true"` + integer},
		{NewTyped(" 1 ", XSDInteger), `" 1 "` + integer},
		{NewTyped("1.5", XSDInteger), `"1.5"` + integer},
		{NewTyped("", XSDInteger), `""` + integer},
		{NewTyped("-", XSDInteger), `"-"` + integer},
		{NewTyped("1.", XSDDecimal), `"1."` + decimal},
		{NewTyped(".", XSDDecimal), `"."` + decimal},
		{NewTyped("1", XSDBoolean), `"1"^^<http://www.w3.org/2001/XMLSchema#boolean>`},
		{NewTyped("1e3", XSDDouble), `"1e3"^^<http://www.w3.org/2001/XMLSchema#double>`},
		{NewString(`a\`), `"a\\"`},
		{NewString("a\nb"), `"a\nb"`},
		{NewLangString("hi", "en"), `"hi"@en`},
		{NewIRI("http://ex.org/a"), "<http://ex.org/a>"},
		{NewBlank("x"), "_:x"},
	}
	for _, c := range cases {
		if got := c.term.SPARQL(); got != c.want {
			t.Errorf("SPARQL(%+v) = %s, want %s", c.term, got, c.want)
		}
	}
}

func TestNumericAccessors(t *testing.T) {
	if f, ok := NewInteger(7).Float(); !ok || f != 7 {
		t.Errorf("Float of integer literal = %v, %v", f, ok)
	}
	if f, ok := NewDecimal(3.5).Float(); !ok || f != 3.5 {
		t.Errorf("Float of decimal literal = %v, %v", f, ok)
	}
	if _, ok := NewString("7").Float(); ok {
		t.Error("plain string literal must not be numeric")
	}
	if i, ok := NewInteger(-12).Int(); !ok || i != -12 {
		t.Errorf("Int = %v, %v", i, ok)
	}
	if b, ok := NewBool(true).Bool(); !ok || !b {
		t.Errorf("Bool = %v, %v", b, ok)
	}
	if _, ok := NewString("true").Bool(); ok {
		t.Error("xsd:string must not parse as boolean")
	}
}

func TestTimeParsing(t *testing.T) {
	d := NewTyped("2021-06-10", XSDDate)
	tm, ok := d.Time()
	if !ok || tm.Year() != 2021 || tm.Month() != time.June || tm.Day() != 10 {
		t.Errorf("date parse: %v %v", tm, ok)
	}
	dt := NewTyped("2021-12-31T23:59:59", XSDDateTime)
	tm, ok = dt.Time()
	if !ok || tm.Hour() != 23 {
		t.Errorf("dateTime parse: %v %v", tm, ok)
	}
	if _, ok := NewString("not a date").Time(); ok {
		t.Error("garbage must not parse as time")
	}
}

func TestLocalName(t *testing.T) {
	cases := []struct{ iri, want string }{
		{"http://ex.org/vocab#Laptop", "Laptop"},
		{"http://ex.org/vocab/Laptop", "Laptop"},
		{"urn:thing", "thing"},
		{"noseparator", "noseparator"},
	}
	for _, c := range cases {
		if got := NewIRI(c.iri).LocalName(); got != c.want {
			t.Errorf("LocalName(%q) = %q, want %q", c.iri, got, c.want)
		}
	}
}

func TestTermLessTotalOrder(t *testing.T) {
	// IRIs < blanks < literals.
	if !NewIRI("z").Less(NewBlank("a")) {
		t.Error("IRI must sort before blank")
	}
	if !NewBlank("z").Less(NewString("a")) {
		t.Error("blank must sort before literal")
	}
	// Numeric literals order numerically, not lexically.
	if !NewInteger(9).Less(NewInteger(10)) {
		t.Error("9 must sort before 10 numerically")
	}
	if NewInteger(10).Less(NewInteger(9)) {
		t.Error("10 must not sort before 9")
	}
}

func TestTermLessIrreflexiveAntisymmetric(t *testing.T) {
	gen := func(a, b string, k1, k2 uint8) bool {
		t1 := Term{Kind: TermKind(k1 % 3), Value: a}
		t2 := Term{Kind: TermKind(k2 % 3), Value: b}
		if t1 == t2 {
			return !t1.Less(t2) && !t2.Less(t1)
		}
		// antisymmetry: at most one direction holds
		return !(t1.Less(t2) && t2.Less(t1))
	}
	if err := quick.Check(gen, nil); err != nil {
		t.Error(err)
	}
}

func TestTripleString(t *testing.T) {
	tr := NewTriple(NewIRI("http://e/s"), NewIRI("http://e/p"), NewInteger(1))
	want := `<http://e/s> <http://e/p> "1"^^<http://www.w3.org/2001/XMLSchema#integer> .`
	if tr.String() != want {
		t.Errorf("Triple.String() = %q, want %q", tr.String(), want)
	}
}

func TestEscapeRoundTripQuick(t *testing.T) {
	f := func(s string) bool {
		lit := NewString(s)
		g := NewGraph()
		g.Add(Triple{NewIRI("http://e/s"), NewIRI("http://e/p"), lit})
		var sb []byte
		// serialize to N-Triples and parse back
		buf := &stringWriter{}
		if err := WriteNTriples(buf, g); err != nil {
			return false
		}
		sb = []byte(buf.s)
		g2, err := LoadTurtleString(string(sb))
		if err != nil {
			return false
		}
		return g2.Has(Triple{NewIRI("http://e/s"), NewIRI("http://e/p"), lit})
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

type stringWriter struct{ s string }

func (w *stringWriter) Write(p []byte) (int, error) {
	w.s += string(p)
	return len(p), nil
}
