// Package rdf implements the Resource Description Framework data model:
// terms (IRIs, blank nodes, literals), triples, an in-memory indexed graph
// store with dictionary encoding, N-Triples and Turtle I/O, and RDFS
// inference (subclass/subproperty closure, domain/range typing).
//
// The package is the storage substrate of the RDF-Analytics reproduction:
// the SPARQL engine (internal/sparql), the HIFUN translator (internal/hifun)
// and the faceted-search model (internal/facet) all operate on rdf.Graph.
package rdf

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// TermKind discriminates the three kinds of RDF terms.
type TermKind uint8

const (
	// KindIRI identifies IRI reference terms.
	KindIRI TermKind = iota
	// KindBlank identifies blank-node terms.
	KindBlank
	// KindLiteral identifies literal terms (plain, typed or language-tagged).
	KindLiteral
)

func (k TermKind) String() string {
	switch k {
	case KindIRI:
		return "IRI"
	case KindBlank:
		return "BlankNode"
	case KindLiteral:
		return "Literal"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is a single RDF term. Terms are immutable value types; two terms are
// equal iff all their fields are equal, so Term is usable as a map key.
type Term struct {
	// Kind says which of the three RDF term kinds this is.
	Kind TermKind
	// Value holds the IRI string, the blank node label (without "_:") or the
	// literal lexical form.
	Value string
	// Datatype holds the datatype IRI for literals ("" means xsd:string /
	// plain). Unused for IRIs and blank nodes.
	Datatype string
	// Lang holds the language tag for language-tagged literals.
	Lang string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: KindIRI, Value: iri} }

// NewBlank returns a blank-node term with the given label (no "_:" prefix).
func NewBlank(label string) Term { return Term{Kind: KindBlank, Value: label} }

// NewString returns a plain string literal.
func NewString(s string) Term {
	return Term{Kind: KindLiteral, Value: s, Datatype: XSDString}
}

// NewLangString returns a language-tagged string literal.
func NewLangString(s, lang string) Term {
	return Term{Kind: KindLiteral, Value: s, Datatype: RDFLangString, Lang: lang}
}

// NewTyped returns a literal with an explicit datatype IRI.
func NewTyped(lexical, datatype string) Term {
	return Term{Kind: KindLiteral, Value: lexical, Datatype: datatype}
}

// NewInteger returns an xsd:integer literal.
func NewInteger(i int64) Term {
	return NewTyped(strconv.FormatInt(i, 10), XSDInteger)
}

// NewDecimal returns an xsd:decimal literal.
func NewDecimal(f float64) Term {
	return NewTyped(strconv.FormatFloat(f, 'f', -1, 64), XSDDecimal)
}

// NewDouble returns an xsd:double literal.
func NewDouble(f float64) Term {
	return NewTyped(strconv.FormatFloat(f, 'g', -1, 64), XSDDouble)
}

// NewBool returns an xsd:boolean literal.
func NewBool(b bool) Term {
	return NewTyped(strconv.FormatBool(b), XSDBoolean)
}

// NewDate returns an xsd:date literal from a time value (UTC date part).
func NewDate(t time.Time) Term {
	return NewTyped(t.Format("2006-01-02"), XSDDate)
}

// NewDateTime returns an xsd:dateTime literal.
func NewDateTime(t time.Time) Term {
	return NewTyped(t.Format("2006-01-02T15:04:05"), XSDDateTime)
}

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == KindIRI }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == KindBlank }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == KindLiteral }

// IsResource reports whether the term can appear in subject position
// (IRI or blank node).
func (t Term) IsResource() bool { return t.Kind != KindLiteral }

// IsZero reports whether the term is the zero Term (no valid term).
func (t Term) IsZero() bool { return t == Term{} }

// IsNumeric reports whether the term is a literal of a numeric XSD datatype.
func (t Term) IsNumeric() bool {
	if t.Kind != KindLiteral {
		return false
	}
	switch t.Datatype {
	case XSDInteger, XSDDecimal, XSDDouble, XSDFloat, XSDInt, XSDLong,
		XSDShort, XSDByte, XSDNonNegativeInteger, XSDPositiveInteger,
		XSDNegativeInteger, XSDNonPositiveInteger, XSDUnsignedInt,
		XSDUnsignedLong:
		return true
	}
	return false
}

// IsTemporal reports whether the term is a literal of a temporal XSD
// datatype (xsd:date / xsd:dateTime), the ones whose value space is ordered
// chronologically rather than lexically.
func (t Term) IsTemporal() bool {
	if t.Kind != KindLiteral {
		return false
	}
	return t.Datatype == XSDDate || t.Datatype == XSDDateTime
}

// Float returns the numeric value of a numeric literal.
func (t Term) Float() (float64, bool) {
	if !t.IsNumeric() {
		return 0, false
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(t.Value), 64)
	if err != nil || math.IsNaN(f) {
		return 0, false
	}
	return f, true
}

// Int returns the integer value of an integer-typed literal.
func (t Term) Int() (int64, bool) {
	if t.Kind != KindLiteral {
		return 0, false
	}
	i, err := strconv.ParseInt(strings.TrimSpace(t.Value), 10, 64)
	if err != nil {
		return 0, false
	}
	return i, true
}

// Bool returns the boolean value of an xsd:boolean literal.
func (t Term) Bool() (bool, bool) {
	if t.Kind != KindLiteral || t.Datatype != XSDBoolean {
		return false, false
	}
	switch t.Value {
	case "true", "1":
		return true, true
	case "false", "0":
		return false, true
	}
	return false, false
}

// Time parses xsd:date / xsd:dateTime lexical forms, with or without a
// zone. The one layout the lexical shape admits is parsed directly, without
// allocating (see parseTemporal).
func (t Term) Time() (time.Time, bool) {
	if t.Kind != KindLiteral {
		return time.Time{}, false
	}
	return parseTemporal(strings.TrimSpace(t.Value))
}

// LocalName returns the fragment/last path segment of an IRI, or the plain
// value for other terms. It is what user interfaces display as a facet label.
func (t Term) LocalName() string {
	if t.Kind != KindIRI {
		return t.Value
	}
	v := t.Value
	if i := strings.LastIndexAny(v, "#/:"); i >= 0 && i < len(v)-1 {
		return v[i+1:]
	}
	return v
}

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	switch t.Kind {
	case KindIRI:
		return "<" + t.Value + ">"
	case KindBlank:
		return "_:" + t.Value
	default:
		var b strings.Builder
		b.WriteByte('"')
		b.WriteString(escapeLiteral(t.Value))
		b.WriteByte('"')
		if t.Lang != "" {
			b.WriteByte('@')
			b.WriteString(t.Lang)
		} else if t.Datatype != "" && t.Datatype != XSDString {
			b.WriteString("^^<")
			b.WriteString(t.Datatype)
			b.WriteByte('>')
		}
		return b.String()
	}
}

// SPARQL renders the term for a generated SPARQL query: an xsd:integer,
// xsd:decimal or xsd:boolean literal whose lexical form is valid is written
// bare, as SPARQL's own numeric and boolean literals; every other term —
// one with an invalid lexical form included — as String writes it, escaped,
// so no value can end the literal it is written in.
func (t Term) SPARQL() string {
	if t.Kind == KindLiteral && t.Lang == "" && bareLexical(t.Datatype, t.Value) {
		return t.Value
	}
	return t.String()
}

// bareLexical reports whether lex is a valid lexical form of the datatype
// that SPARQL reads back as a number or boolean: [+-]digits for xsd:integer,
// [+-]digits, optionally with a fraction of at least one digit, for
// xsd:decimal, and true or false for xsd:boolean.
func bareLexical(datatype, lex string) bool {
	switch datatype {
	case XSDBoolean:
		return lex == "true" || lex == "false"
	case XSDInteger, XSDDecimal:
		if lex != "" && (lex[0] == '+' || lex[0] == '-') {
			lex = lex[1:]
		}
		whole, frac, dot := strings.Cut(lex, ".")
		if dot && (datatype == XSDInteger || frac == "") {
			return false
		}
		return (whole != "" || frac != "") && digitsOnly(whole) && digitsOnly(frac)
	}
	return false
}

func digitsOnly(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// Less imposes a total order on terms: IRIs < blanks < literals, then by
// value, datatype and language. It is the order used by deterministic
// iteration helpers and result sorting.
func (t Term) Less(u Term) bool {
	if t.Kind != u.Kind {
		return t.Kind < u.Kind
	}
	// Numeric literals order numerically so facet values display sensibly.
	if t.Kind == KindLiteral && t.IsNumeric() && u.IsNumeric() {
		a, okA := t.Float()
		b, okB := u.Float()
		if okA && okB && a != b {
			return a < b
		}
	}
	// Temporal literals order chronologically: timezone offsets and
	// non-canonical lexical forms make string order diverge from the value
	// space (e.g. "2021-06-01T12:00:00+02:00" is the same instant as
	// "2021-06-01T10:00:00Z" but sorts after it lexically). Distinct lexical
	// forms of the same instant fall through to the lexical tiebreak so the
	// order stays total and antisymmetric.
	if t.IsTemporal() && u.IsTemporal() {
		a, okA := t.Time()
		b, okB := u.Time()
		if okA && okB && !a.Equal(b) {
			return a.Before(b)
		}
	}
	if t.Value != u.Value {
		return t.Value < u.Value
	}
	if t.Datatype != u.Datatype {
		return t.Datatype < u.Datatype
	}
	return t.Lang < u.Lang
}

func escapeLiteral(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Triple is an RDF statement.
type Triple struct {
	S, P, O Term
}

// NewTriple builds a triple from three terms.
func NewTriple(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// String renders the triple in N-Triples syntax (without trailing newline).
func (t Triple) String() string {
	return t.S.String() + " " + t.P.String() + " " + t.O.String() + " ."
}

// Less orders triples by subject, predicate, object.
func (t Triple) Less(u Triple) bool {
	if t.S != u.S {
		return t.S.Less(u.S)
	}
	if t.P != u.P {
		return t.P.Less(u.P)
	}
	return t.O.Less(u.O)
}
