package rdf

// The Turtle parser LoadTurtle replaced, kept as its oracle: a rune reader
// with a pushback stack, a strings.Builder per token, and triples streamed
// through a sink into AddAll in chunks. Only its names changed.

import (
	"bufio"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"unicode"
	"unicode/utf8"
)

// refParser is a recursive-descent parser for the Turtle family. It accepts
// full Turtle (prefixes, predicate-object lists, blank node property lists,
// collections, numeric/boolean shorthand) and therefore also plain N-Triples.
type refParser struct {
	r         *bufio.Reader
	pushback  []rune // multi-rune unread stack (LIFO)
	line, col int
	base      string
	prefixes  map[string]string
	bnodeSeq  int
	sink      func(Triple) error
	bad       error // the first invalid UTF-8 sequence; every read after it fails
}

// refParseTurtle reads Turtle (or N-Triples) from r and streams each triple to
// sink. Parsing stops at the first syntax error or sink error.
func refParseTurtle(r io.Reader, sink func(Triple) error) error {
	p := &refParser{
		r:        bufio.NewReaderSize(r, 64<<10),
		line:     1,
		prefixes: map[string]string{},
		sink:     sink,
	}
	for k, v := range WellKnownPrefixes {
		p.prefixes[k] = v
	}
	err := p.parseDocument()
	if p.bad != nil {
		return p.bad
	}
	return err
}

// refLoadChunk is how many parsed triples refLoadTurtle buffers between two AddAll
// calls: far past maxDelta, so all but a short last chunk are sorted in, while
// the buffer (168 B a Triple, ≈5 MB) stays small next to the document.
const refLoadChunk = 32 << 10

// refLoadTurtle parses Turtle from r into a new graph. The triples go in through
// AddAll in document order, so terms get the dictionary IDs a loop of Add over
// the document would give them; a document with a syntax error yields no graph.
func refLoadTurtle(r io.Reader) (*Graph, error) {
	g := NewGraph()
	var chunk []Triple
	err := refParseTurtle(r, func(t Triple) error {
		if chunk = append(chunk, t); len(chunk) == refLoadChunk {
			g.AddAll(chunk)
			chunk = chunk[:0]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	g.AddAll(chunk)
	return g, nil
}

func (p *refParser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Col: p.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *refParser) read() (rune, error) {
	if n := len(p.pushback); n > 0 {
		r := p.pushback[n-1]
		p.pushback = p.pushback[:n-1]
		p.advancePos(r)
		return r, nil
	}
	if p.bad != nil {
		return 0, p.bad
	}
	r, size, err := p.r.ReadRune()
	if err != nil {
		return 0, err
	}
	if r == utf8.RuneError && size == 1 {
		p.bad = p.errf("invalid UTF-8")
		return 0, p.bad
	}
	p.advancePos(r)
	return r, nil
}

func (p *refParser) advancePos(r rune) {
	if r == '\n' {
		p.line++
		p.col = 0
	} else {
		p.col++
	}
}

func (p *refParser) unread(r rune) {
	if r == '\n' {
		p.line--
	} else if p.col > 0 {
		p.col--
	}
	p.pushback = append(p.pushback, r)
}

// unreadAll pushes back a sequence of runes so they will be re-read in the
// original order.
func (p *refParser) unreadAll(rs []rune) {
	for i := len(rs) - 1; i >= 0; i-- {
		p.unread(rs[i])
	}
}

// skipWS consumes whitespace and comments; returns io.EOF at end of input.
func (p *refParser) skipWS() error {
	for {
		r, err := p.read()
		if err != nil {
			return err
		}
		switch {
		case r == '#':
			for {
				r, err = p.read()
				if err != nil {
					return err
				}
				if r == '\n' {
					break
				}
			}
		case unicode.IsSpace(r):
			// keep consuming
		default:
			p.unread(r)
			return nil
		}
	}
}

func (p *refParser) peek() (rune, error) {
	r, err := p.read()
	if err != nil {
		return 0, err
	}
	p.unread(r)
	return r, nil
}

func (p *refParser) expect(want rune) error {
	r, err := p.read()
	if err != nil {
		return p.errf("expected %q, got EOF", want)
	}
	if r != want {
		return p.errf("expected %q, got %q", want, r)
	}
	return nil
}

func (p *refParser) parseDocument() error {
	for {
		if err := p.skipWS(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		r, _ := p.peek()
		if r == '@' {
			if err := p.parseDirective(); err != nil {
				return err
			}
			continue
		}
		// SPARQL-style PREFIX/BASE directives (case-insensitive, no dot).
		if r == 'P' || r == 'p' || r == 'B' || r == 'b' {
			ok, err := p.trySparqlDirective()
			if err != nil {
				return err
			}
			if ok {
				continue
			}
		}
		if err := p.parseTriples(); err != nil {
			return err
		}
	}
}

// trySparqlDirective handles "PREFIX p: <iri>" and "BASE <iri>" without a
// leading '@'. When the leading word is not a directive keyword it is pushed
// back and false is returned.
func (p *refParser) trySparqlDirective() (bool, error) {
	var word []rune
	for len(word) < 8 {
		r, err := p.read()
		if err != nil {
			break
		}
		if !unicode.IsLetter(r) {
			p.unread(r)
			break
		}
		word = append(word, r)
	}
	switch strings.ToLower(string(word)) {
	case "prefix":
		if err := p.skipWS(); err != nil {
			return false, p.errf("unexpected EOF after PREFIX")
		}
		return true, p.parsePrefixBody(false)
	case "base":
		if err := p.skipWS(); err != nil {
			return false, p.errf("unexpected EOF after BASE")
		}
		iri, err := p.parseIRIRef()
		if err != nil {
			return false, err
		}
		p.base = iri
		return true, nil
	}
	p.unreadAll(word)
	return false, nil
}

func (p *refParser) parseDirective() error {
	if err := p.expect('@'); err != nil {
		return err
	}
	word, err := p.readBareWord()
	if err != nil {
		return err
	}
	switch word {
	case "prefix":
		if err := p.skipWS(); err != nil {
			return p.errf("unexpected EOF after @prefix")
		}
		return p.parsePrefixBody(true)
	case "base":
		if err := p.skipWS(); err != nil {
			return p.errf("unexpected EOF after @base")
		}
		iri, err := p.parseIRIRef()
		if err != nil {
			return err
		}
		p.base = iri
		if err := p.skipWS(); err != nil {
			return p.errf("unexpected EOF, expected '.'")
		}
		return p.expect('.')
	default:
		return p.errf("unknown directive @%s", word)
	}
}

func (p *refParser) parsePrefixBody(dotTerminated bool) error {
	label, err := p.readPrefixLabel()
	if err != nil {
		return err
	}
	if err := p.skipWS(); err != nil {
		return p.errf("unexpected EOF in prefix declaration")
	}
	iri, err := p.parseIRIRef()
	if err != nil {
		return err
	}
	p.prefixes[label] = iri
	if dotTerminated {
		if err := p.skipWS(); err != nil {
			return p.errf("unexpected EOF, expected '.'")
		}
		return p.expect('.')
	}
	return nil
}

func (p *refParser) readBareWord() (string, error) {
	var b strings.Builder
	for {
		r, err := p.read()
		if err != nil {
			break
		}
		if unicode.IsLetter(r) {
			b.WriteRune(r)
			continue
		}
		p.unread(r)
		break
	}
	if b.Len() == 0 {
		return "", p.errf("expected word")
	}
	return b.String(), nil
}

// readPrefixLabel reads "label:" and returns label (may be empty).
func (p *refParser) readPrefixLabel() (string, error) {
	var b strings.Builder
	for {
		r, err := p.read()
		if err != nil {
			return "", p.errf("unexpected EOF in prefix label")
		}
		if r == ':' {
			return b.String(), nil
		}
		if unicode.IsSpace(r) {
			return "", p.errf("prefix label must end with ':'")
		}
		b.WriteRune(r)
	}
}

func (p *refParser) parseTriples() error {
	subj, err := p.parseSubject()
	if err != nil {
		return err
	}
	if err := p.parsePredicateObjectList(subj); err != nil {
		return err
	}
	if err := p.skipWS(); err != nil {
		return p.errf("unexpected EOF, expected '.'")
	}
	return p.expect('.')
}

func (p *refParser) parseSubject() (Term, error) {
	r, err := p.peek()
	if err != nil {
		return Term{}, p.errf("unexpected EOF, expected subject")
	}
	switch r {
	case '<':
		iri, err := p.parseIRIRef()
		return NewIRI(iri), err
	case '_':
		return p.parseBlankLabel()
	case '[':
		return p.parseBlankPropertyList()
	case '(':
		return p.parseCollection()
	default:
		return p.parsePrefixedName()
	}
}

func (p *refParser) parsePredicateObjectList(subj Term) error {
	for {
		if err := p.skipWS(); err != nil {
			return p.errf("unexpected EOF in predicate-object list")
		}
		pred, err := p.parsePredicate()
		if err != nil {
			return err
		}
		if err := p.parseObjectList(subj, pred); err != nil {
			return err
		}
		if err := p.skipWS(); err != nil {
			return p.errf("unexpected EOF after object list")
		}
		r, _ := p.peek()
		if r != ';' {
			return nil
		}
		p.read()
		// Allow trailing ';' before '.' or ']'.
		if err := p.skipWS(); err != nil {
			return p.errf("unexpected EOF after ';'")
		}
		r, _ = p.peek()
		if r == '.' || r == ']' {
			return nil
		}
	}
}

func (p *refParser) parsePredicate() (Term, error) {
	r, err := p.peek()
	if err != nil {
		return Term{}, p.errf("unexpected EOF, expected predicate")
	}
	if r == '<' {
		iri, err := p.parseIRIRef()
		return NewIRI(iri), err
	}
	// 'a' keyword (only when followed by whitespace).
	if r == 'a' {
		p.read()
		nxt, err := p.peek()
		if err != nil || unicode.IsSpace(nxt) {
			return NewIRI(RDFType), nil
		}
		p.unread('a')
	}
	return p.parsePrefixedName()
}

func (p *refParser) parseObjectList(subj, pred Term) error {
	for {
		if err := p.skipWS(); err != nil {
			return p.errf("unexpected EOF, expected object")
		}
		obj, err := p.parseObject()
		if err != nil {
			return err
		}
		if err := p.sink(Triple{subj, pred, obj}); err != nil {
			return err
		}
		if err := p.skipWS(); err != nil {
			return p.errf("unexpected EOF after object")
		}
		r, _ := p.peek()
		if r != ',' {
			return nil
		}
		p.read()
	}
}

func (p *refParser) parseObject() (Term, error) {
	r, err := p.peek()
	if err != nil {
		return Term{}, p.errf("unexpected EOF, expected object")
	}
	switch {
	case r == '<':
		iri, err := p.parseIRIRef()
		return NewIRI(iri), err
	case r == '_':
		return p.parseBlankLabel()
	case r == '[':
		return p.parseBlankPropertyList()
	case r == '(':
		return p.parseCollection()
	case r == '"' || r == '\'':
		return p.parseLiteral()
	case r == '+' || r == '-' || unicode.IsDigit(r):
		return p.parseNumber()
	case r == '.' && len(p.ahead(2)) == 2 && refIsDecimal(p.ahead(2)[1]):
		return p.parseNumber()
	default:
		if word, ok := p.sniffBoolean(); ok {
			return NewTyped(word, XSDBoolean), nil
		}
		return p.parsePrefixedName()
	}
}

// sniffBoolean consumes "true" or "false" when present at the cursor and
// followed by a delimiter; otherwise it consumes nothing.
func (p *refParser) sniffBoolean() (string, bool) {
	var consumed []rune
	for len(consumed) < 6 {
		r, err := p.read()
		if err != nil {
			break
		}
		consumed = append(consumed, r)
		if !unicode.IsLetter(r) {
			break
		}
	}
	s := string(consumed)
	for _, word := range []string{"true", "false"} {
		if s == word {
			return word, true // literal at EOF
		}
		if strings.HasPrefix(s, word) && len(s) == len(word)+1 {
			tail := rune(s[len(word)])
			if unicode.IsSpace(tail) || strings.ContainsRune(".;,)]", tail) {
				p.unread(tail)
				return word, true
			}
		}
	}
	p.unreadAll(consumed)
	return "", false
}

func (p *refParser) parseIRIRef() (string, error) {
	if err := p.expect('<'); err != nil {
		return "", err
	}
	var b strings.Builder
	for {
		r, err := p.read()
		if err != nil {
			return "", p.errf("unterminated IRI")
		}
		switch r {
		case '>':
			iri := b.String()
			if p.base != "" {
				iri = ResolveIRI(p.base, iri)
			}
			return iri, nil
		case '\\':
			esc, err := p.readEscape()
			if err != nil {
				return "", err
			}
			b.WriteRune(esc)
		default:
			b.WriteRune(r)
		}
	}
}

func (p *refParser) readEscape() (rune, error) {
	r, err := p.read()
	if err != nil {
		return 0, p.errf("unterminated escape")
	}
	switch r {
	case 't':
		return '\t', nil
	case 'n':
		return '\n', nil
	case 'r':
		return '\r', nil
	case 'b':
		return '\b', nil
	case 'f':
		return '\f', nil
	case '"':
		return '"', nil
	case '\'':
		return '\'', nil
	case '\\':
		return '\\', nil
	case 'u', 'U':
		n := 4
		if r == 'U' {
			n = 8
		}
		var v rune
		for i := 0; i < n; i++ {
			h, err := p.read()
			if err != nil {
				return 0, p.errf("unterminated unicode escape")
			}
			d := refHexVal(h)
			if d < 0 {
				return 0, p.errf("bad hex digit %q in unicode escape", h)
			}
			v = v<<4 | rune(d)
		}
		return v, nil
	default:
		return 0, p.errf("unknown escape \\%c", r)
	}
}

func refHexVal(r rune) int {
	switch {
	case r >= '0' && r <= '9':
		return int(r - '0')
	case r >= 'a' && r <= 'f':
		return int(r-'a') + 10
	case r >= 'A' && r <= 'F':
		return int(r-'A') + 10
	}
	return -1
}

func (p *refParser) parseBlankLabel() (Term, error) {
	if err := p.expect('_'); err != nil {
		return Term{}, err
	}
	if err := p.expect(':'); err != nil {
		return Term{}, err
	}
	var b strings.Builder
	for {
		r, err := p.read()
		if err != nil {
			break
		}
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' {
			b.WriteRune(r)
			continue
		}
		p.unread(r)
		break
	}
	if b.Len() == 0 {
		return Term{}, p.errf("empty blank node label")
	}
	return NewBlank(b.String()), nil
}

func (p *refParser) freshBlank() Term {
	p.bnodeSeq++
	return NewBlank(fmt.Sprintf("genid%d", p.bnodeSeq))
}

func (p *refParser) parseBlankPropertyList() (Term, error) {
	if err := p.expect('['); err != nil {
		return Term{}, err
	}
	node := p.freshBlank()
	if err := p.skipWS(); err != nil {
		return Term{}, p.errf("unterminated blank node property list")
	}
	if r, _ := p.peek(); r == ']' {
		p.read()
		return node, nil
	}
	if err := p.parsePredicateObjectList(node); err != nil {
		return Term{}, err
	}
	if err := p.skipWS(); err != nil {
		return Term{}, p.errf("unterminated blank node property list")
	}
	return node, p.expect(']')
}

func (p *refParser) parseCollection() (Term, error) {
	if err := p.expect('('); err != nil {
		return Term{}, err
	}
	var items []Term
	for {
		if err := p.skipWS(); err != nil {
			return Term{}, p.errf("unterminated collection")
		}
		if r, _ := p.peek(); r == ')' {
			p.read()
			break
		}
		item, err := p.parseObject()
		if err != nil {
			return Term{}, err
		}
		items = append(items, item)
	}
	if len(items) == 0 {
		return NewIRI(RDFNil), nil
	}
	head := p.freshBlank()
	cur := head
	for i, item := range items {
		if err := p.sink(Triple{cur, NewIRI(RDFFirst), item}); err != nil {
			return Term{}, err
		}
		var rest Term
		if i == len(items)-1 {
			rest = NewIRI(RDFNil)
		} else {
			rest = p.freshBlank()
		}
		if err := p.sink(Triple{cur, NewIRI(RDFRest), rest}); err != nil {
			return Term{}, err
		}
		cur = rest
	}
	return head, nil
}

func (p *refParser) parseLiteral() (Term, error) {
	quote, err := p.read()
	if err != nil {
		return Term{}, p.errf("expected literal")
	}
	long := false
	// Detect long quotes (""" or ''').
	if r1, err1 := p.read(); err1 == nil {
		if r1 == quote {
			if r2, err2 := p.read(); err2 == nil {
				if r2 == quote {
					long = true
				} else {
					p.unread(r2)
					p.unread(r1)
				}
			} else {
				// "" at EOF is the empty string literal.
				return NewString(""), nil
			}
		} else {
			p.unread(r1)
		}
	}
	var b strings.Builder
	for {
		r, err := p.read()
		if err != nil {
			return Term{}, p.errf("unterminated string literal")
		}
		if r == quote {
			if !long {
				break
			}
			r2, err2 := p.read()
			if err2 != nil {
				return Term{}, p.errf("unterminated long string literal")
			}
			if r2 == quote {
				r3, err3 := p.read()
				if err3 != nil {
					return Term{}, p.errf("unterminated long string literal")
				}
				if r3 == quote {
					break
				}
				b.WriteRune(r)
				b.WriteRune(r2)
				p.unread(r3)
				continue
			}
			b.WriteRune(r)
			p.unread(r2)
			continue
		}
		if r == '\\' {
			esc, err := p.readEscape()
			if err != nil {
				return Term{}, err
			}
			b.WriteRune(esc)
			continue
		}
		b.WriteRune(r)
	}
	value := b.String()
	// Optional @lang or ^^datatype suffix.
	r, err := p.peek()
	if err == nil && r == '@' {
		p.read()
		var lang strings.Builder
		for {
			r, err := p.read()
			if err != nil {
				break
			}
			if r < utf8.RuneSelf && (unicode.IsLetter(r) || refIsDecimal(r) || r == '-') {
				lang.WriteRune(r)
				continue
			}
			p.unread(r)
			break
		}
		if !refIsLangTag(lang.String()) {
			return Term{}, p.errf("malformed language tag %q", lang.String())
		}
		return NewLangString(value, lang.String()), nil
	}
	if err == nil && r == '^' {
		p.read()
		if err := p.expect('^'); err != nil {
			return Term{}, err
		}
		r, err := p.peek()
		if err != nil {
			return Term{}, p.errf("expected datatype after '^^'")
		}
		if r == '<' {
			dt, err := p.parseIRIRef()
			if err != nil {
				return Term{}, err
			}
			return NewTyped(value, dt), nil
		}
		dt, err := p.parsePrefixedName()
		if err != nil {
			return Term{}, err
		}
		return NewTyped(value, dt.Value), nil
	}
	return NewString(value), nil
}

// parseNumber reads INTEGER, DECIMAL or DOUBLE: [+-]? digits, a fraction
// when a '.' is followed by a digit (or, after digits, by an exponent), and
// an exponent [eE][+-]?[0-9]+. A '.' that starts neither ends the statement.
func (p *refParser) parseNumber() (Term, error) {
	var b strings.Builder
	dt := XSDInteger
	if r, _ := p.peek(); r == '+' || r == '-' {
		p.read()
		b.WriteRune(r)
	}
	n := p.readDigits(&b)
	if next := p.ahead(4); len(next) > 1 && next[0] == '.' && (refIsDecimal(next[1]) || n > 0 && refIsExponent(next[1:])) {
		p.read()
		b.WriteByte('.')
		dt = XSDDecimal
		n += p.readDigits(&b)
	}
	if n == 0 {
		return Term{}, p.errf("malformed number")
	}
	if next := p.ahead(3); len(next) > 0 && (next[0] == 'e' || next[0] == 'E') {
		if !refIsExponent(next) {
			return Term{}, p.errf("malformed number")
		}
		r, _ := p.read()
		b.WriteRune(r)
		if r, _ := p.peek(); r == '+' || r == '-' {
			p.read()
			b.WriteRune(r)
		}
		p.readDigits(&b)
		dt = XSDDouble
	}
	return NewTyped(b.String(), dt), nil
}

// readDigits consumes [0-9]* into b and returns how many it read.
func (p *refParser) readDigits(b *strings.Builder) int {
	n := 0
	for {
		r, err := p.read()
		if err != nil {
			return n
		}
		if !refIsDecimal(r) {
			p.unread(r)
			return n
		}
		b.WriteRune(r)
		n++
	}
}

// ahead returns up to n runes at the cursor without consuming them.
func (p *refParser) ahead(n int) []rune {
	var rs []rune
	for len(rs) < n {
		r, err := p.read()
		if err != nil {
			break
		}
		rs = append(rs, r)
	}
	p.unreadAll(rs)
	return rs
}

func refIsDecimal(r rune) bool { return r >= '0' && r <= '9' }

// refIsExponent reports whether rs starts with EXPONENT: [eE] [+-]? [0-9].
func refIsExponent(rs []rune) bool {
	if len(rs) < 2 || rs[0] != 'e' && rs[0] != 'E' {
		return false
	}
	if rs[1] == '+' || rs[1] == '-' {
		rs = rs[1:]
	}
	return len(rs) > 1 && refIsDecimal(rs[1])
}

// refIsLangTag reports whether tag matches LANGTAG without its '@':
// [a-zA-Z]+ ('-' [a-zA-Z0-9]+)*.
func refIsLangTag(tag string) bool {
	for i, sub := range strings.Split(tag, "-") {
		if sub == "" {
			return false
		}
		for _, r := range sub {
			if r > unicode.MaxASCII || !unicode.IsLetter(r) && (i == 0 || !refIsDecimal(r)) {
				return false
			}
		}
	}
	return true
}

func (p *refParser) parsePrefixedName() (Term, error) {
	var b strings.Builder
	for {
		r, err := p.read()
		if err != nil {
			break
		}
		if r == '%' {
			h1, err1 := p.read()
			h2, err2 := p.read()
			if err1 != nil || err2 != nil || refHexVal(h1) < 0 || refHexVal(h2) < 0 {
				return Term{}, p.errf("'%%' must be followed by two hex digits")
			}
			b.WriteRune(r)
			b.WriteRune(h1)
			b.WriteRune(h2)
			continue
		}
		if unicode.IsLetter(r) || unicode.IsDigit(r) || strings.ContainsRune(":_-", r) {
			b.WriteRune(r)
			continue
		}
		// A dot inside a pname is allowed only when followed by a name char;
		// a trailing dot terminates the statement instead.
		if r == '.' {
			nxt, err2 := p.peek()
			if err2 == nil && (unicode.IsLetter(nxt) || unicode.IsDigit(nxt) || nxt == '_') {
				b.WriteRune(r)
				continue
			}
			p.unread(r)
			break
		}
		p.unread(r)
		break
	}
	pname := b.String()
	if pname == "" {
		r, err := p.peek()
		if err != nil {
			return Term{}, p.errf("expected term, got EOF")
		}
		return Term{}, p.errf("expected term, got %q", r)
	}
	i := strings.IndexByte(pname, ':')
	if i < 0 {
		return Term{}, p.errf("expected ':' in prefixed name %q", pname)
	}
	prefix, local := pname[:i], pname[i+1:]
	ns, ok := p.prefixes[prefix]
	if !ok {
		return Term{}, p.errf("undefined prefix %q", prefix)
	}
	return NewIRI(ns + local), nil
}

// diffLoad loads src with LoadTurtle — once with the whole input behind
// each Read and once one byte per Read, so every token crosses a refill —
// and with refLoadTurtle, and describes the first way they differ: in
// accepting it, in the term of an ID, in the triples, in Version, and, when
// lines is set, in the line a rejection names. "" means they agree.
func diffLoad(src string, lines bool) string {
	want, wantErr := refLoadTurtle(strings.NewReader(src))
	for _, r := range []io.Reader{strings.NewReader(src), iotest.OneByteReader(strings.NewReader(src))} {
		got, err := LoadTurtle(r)
		switch {
		case (err == nil) != (wantErr == nil):
			return fmt.Sprintf("error %v, oracle %v", err, wantErr)
		case err != nil:
			pe, ok := err.(*ParseError)
			wpe, wok := wantErr.(*ParseError)
			if lines && (!ok || !wok || pe.Line != wpe.Line) {
				return fmt.Sprintf("error %v, oracle %v", err, wantErr)
			}
			continue
		case got.TermCount() != want.TermCount():
			return fmt.Sprintf("%d terms, oracle %d", got.TermCount(), want.TermCount())
		case got.Version() != want.Version():
			return fmt.Sprintf("version %d, oracle %d", got.Version(), want.Version())
		}
		for id := ID(1); int(id) <= want.TermCount(); id++ {
			if got.TermOf(id) != want.TermOf(id) {
				return fmt.Sprintf("ID %d is %v, oracle %v", id, got.TermOf(id), want.TermOf(id))
			}
		}
		if gt, wt := got.Triples(), want.Triples(); !slices.Equal(gt, wt) {
			return fmt.Sprintf("%d triples, oracle %d: %v\noracle %v", len(gt), len(wt), gt, wt)
		}
	}
	return ""
}

// genTurtle writes a random document of n statements mixing what the
// scanner must carry across refills: \u, \U and \" escapes, long strings,
// CRLF line ends, comments, empty and nested collections, nested blank node
// property lists, numeric and boolean shorthand, language tags, typed
// literals, and @base and BASE with relative IRIs.
func genTurtle(rng *rand.Rand, n int) string {
	var b strings.Builder
	nl := []string{"\n", "\r\n"}[rng.IntN(2)]
	pick := func(xs ...string) string { return xs[rng.IntN(len(xs))] }
	b.WriteString("@prefix e: <http://e.org/ns#> ." + nl + "PREFIX f: <http://f.org/>" + nl)
	var object func(depth int) string
	object = func(depth int) string {
		switch k := rng.IntN(16); {
		case k == 0 && depth < 3:
			var items []string
			for range rng.IntN(4) {
				items = append(items, object(depth+1))
			}
			return "( " + strings.Join(items, " ") + " )"
		case k == 1 && depth < 3:
			return fmt.Sprintf("[ e:p%d %s ; a e:C%d ; ]", rng.IntN(5), object(depth+1), rng.IntN(3))
		case k == 2:
			return pick(`"a\"bé\U0001F600\n\tc"`, `"é ü ≠ 𝄞"@fr`, `'single \'q\''`, `""`)
		case k == 3:
			return `"""long ` + strings.Repeat("x\"y ", rng.IntN(600)) + nl + `"" end"""`
		case k == 4:
			return pick("1", "-17", "+3.25", ".5", "1.e5", "2E-3", "-0.5e+10", "007")
		case k == 5:
			return pick("true", "false")
		case k == 6:
			return fmt.Sprintf(`"%d"@%s`, rng.IntN(50), pick("en", "en-GB", "de-1996", "ZH-hant"))
		case k == 7:
			return fmt.Sprintf(`"%d"^^%s`, rng.IntN(50), pick("xsd:int", "<http://t.org/dt>", "<dt>", "e:dt%20x"))
		case k == 8:
			return pick("<rel/x>", "<../up>", "<#frag>", "<?q=1>", "<//host/p>", "</abs>", "<\\u0041b>")
		case k == 9:
			return fmt.Sprintf("_:b%d", rng.IntN(20))
		case k == 10:
			return "()"
		}
		return fmt.Sprintf("%s:o%d%s", pick("e", "f"), rng.IntN(40), pick("", ".x", "_y", "-z"))
	}
	for i := range n {
		switch rng.IntN(40) {
		case 0:
			b.WriteString("# a comment ü ; . " + nl)
		case 1:
			b.WriteString(pick("@base <http://base.org/a/b/> .", "BASE <../c/d>", "base <http://other.org/>", "@base <x/> .") + nl)
		}
		subject := pick(fmt.Sprintf("e:s%d", i%50), fmt.Sprintf("<s%d>", i%30), fmt.Sprintf("_:s%d", i%10), "[ e:q 1 ]", "( e:a e:b )")
		fmt.Fprintf(&b, "%s %s %s", subject, pick("e:p0", "a", "<http://e.org/q>", "f:r"), object(0))
		for rng.IntN(3) == 0 {
			if rng.IntN(2) == 0 {
				fmt.Fprintf(&b, "%s%s", pick(" , ", ","), object(0))
			} else {
				fmt.Fprintf(&b, "%s%s %s", pick(" ;"+nl+"\t", ";"), pick("e:p1", "e:p2"), object(0))
			}
		}
		b.WriteString(pick(" .", ".", " ;\t.") + nl)
	}
	return b.String()
}

// TestLoadTurtleMatchesReference loads documents with LoadTurtle and the
// oracle: the conformance harness's graphs, seeded random documents, the
// documents TestParseErrors rejects, and one with an error on line 40 000.
func TestLoadTurtleMatchesReference(t *testing.T) {
	files, err := filepath.Glob("../conformance/testdata/*/*/*.ttl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no conformance graphs: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffLoad(string(src), true); d != "" {
			t.Errorf("%s: %s", f, d)
		}
	}
	for seed := range uint64(40) {
		src := genTurtle(rand.New(rand.NewPCG(seed, 1)), 400)
		if d := diffLoad(src, true); d != "" {
			t.Errorf("seed %d: %s", seed, d)
		}
	}
	for _, tc := range badDocs {
		if d := diffLoad(tc.doc, true); d != "" {
			t.Errorf("%q: %s", tc.doc, d)
		}
	}
	var b strings.Builder
	for i := 1; i < 40000; i++ {
		fmt.Fprintf(&b, "<http://e/s%d> <http://e/p> \"line %d\" .\n", i%100, i)
	}
	b.WriteString("<http://e/s> <http://e/p> e:undeclared .\n")
	_, err = LoadTurtleString(b.String())
	if pe, ok := err.(*ParseError); !ok || pe.Line != 40000 {
		t.Errorf("error %v, want one on line 40000", err)
	}
	if d := diffLoad(b.String(), true); d != "" {
		t.Error(d)
	}
}
