package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode"
)

// ParseError reports a syntax error with its position in the input.
type ParseError struct {
	Line, Col int
	Msg       string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("turtle: line %d col %d: %s", e.Line, e.Col, e.Msg)
}

// ttlParser is a recursive-descent parser for the Turtle family. It accepts
// full Turtle (prefixes, predicate-object lists, blank node property lists,
// collections, numeric/boolean shorthand) and therefore also plain N-Triples.
type ttlParser struct {
	r         *bufio.Reader
	pushback  []rune // multi-rune unread stack (LIFO)
	line, col int
	base      string
	prefixes  map[string]string
	bnodeSeq  int
	sink      func(Triple) error
}

// ParseTurtle reads Turtle (or N-Triples) from r and streams each triple to
// sink. Parsing stops at the first syntax error or sink error.
func ParseTurtle(r io.Reader, sink func(Triple) error) error {
	p := &ttlParser{
		r:        bufio.NewReaderSize(r, 64<<10),
		line:     1,
		prefixes: map[string]string{},
		sink:     sink,
	}
	for k, v := range WellKnownPrefixes {
		p.prefixes[k] = v
	}
	return p.parseDocument()
}

// loadChunk is how many parsed triples LoadTurtle buffers between two AddAll
// calls: far past maxDelta, so all but a short last chunk are sorted in, while
// the buffer (168 B a Triple, ≈5 MB) stays small next to the document.
const loadChunk = 32 << 10

// LoadTurtle parses Turtle from r into a new graph. The triples go in through
// AddAll in document order, so terms get the dictionary IDs a loop of Add over
// the document would give them; a document with a syntax error yields no graph.
func LoadTurtle(r io.Reader) (*Graph, error) {
	g := NewGraph()
	var chunk []Triple
	err := ParseTurtle(r, func(t Triple) error {
		if chunk = append(chunk, t); len(chunk) == loadChunk {
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

// LoadTurtleString parses a Turtle document held in a string.
func LoadTurtleString(s string) (*Graph, error) {
	return LoadTurtle(strings.NewReader(s))
}

// MustLoadTurtle parses Turtle and panics on error. For tests and examples
// with constant documents.
func MustLoadTurtle(s string) *Graph {
	g, err := LoadTurtleString(s)
	if err != nil {
		panic(err)
	}
	return g
}

func (p *ttlParser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Col: p.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *ttlParser) read() (rune, error) {
	if n := len(p.pushback); n > 0 {
		r := p.pushback[n-1]
		p.pushback = p.pushback[:n-1]
		p.advancePos(r)
		return r, nil
	}
	r, _, err := p.r.ReadRune()
	if err != nil {
		return 0, err
	}
	p.advancePos(r)
	return r, nil
}

func (p *ttlParser) advancePos(r rune) {
	if r == '\n' {
		p.line++
		p.col = 0
	} else {
		p.col++
	}
}

func (p *ttlParser) unread(r rune) {
	if r == '\n' {
		p.line--
	} else if p.col > 0 {
		p.col--
	}
	p.pushback = append(p.pushback, r)
}

// unreadAll pushes back a sequence of runes so they will be re-read in the
// original order.
func (p *ttlParser) unreadAll(rs []rune) {
	for i := len(rs) - 1; i >= 0; i-- {
		p.unread(rs[i])
	}
}

// skipWS consumes whitespace and comments; returns io.EOF at end of input.
func (p *ttlParser) skipWS() error {
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

func (p *ttlParser) peek() (rune, error) {
	r, err := p.read()
	if err != nil {
		return 0, err
	}
	p.unread(r)
	return r, nil
}

func (p *ttlParser) expect(want rune) error {
	r, err := p.read()
	if err != nil {
		return p.errf("expected %q, got EOF", want)
	}
	if r != want {
		return p.errf("expected %q, got %q", want, r)
	}
	return nil
}

func (p *ttlParser) parseDocument() error {
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
func (p *ttlParser) trySparqlDirective() (bool, error) {
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

func (p *ttlParser) parseDirective() error {
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
			return err
		}
		return p.expect('.')
	default:
		return p.errf("unknown directive @%s", word)
	}
}

func (p *ttlParser) parsePrefixBody(dotTerminated bool) error {
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
			return err
		}
		return p.expect('.')
	}
	return nil
}

func (p *ttlParser) readBareWord() (string, error) {
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
func (p *ttlParser) readPrefixLabel() (string, error) {
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

func (p *ttlParser) parseTriples() error {
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

func (p *ttlParser) parseSubject() (Term, error) {
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

func (p *ttlParser) parsePredicateObjectList(subj Term) error {
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

func (p *ttlParser) parsePredicate() (Term, error) {
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

func (p *ttlParser) parseObjectList(subj, pred Term) error {
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

func (p *ttlParser) parseObject() (Term, error) {
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
	default:
		if word, ok := p.sniffBoolean(); ok {
			return NewTyped(word, XSDBoolean), nil
		}
		return p.parsePrefixedName()
	}
}

// sniffBoolean consumes "true" or "false" when present at the cursor and
// followed by a delimiter; otherwise it consumes nothing.
func (p *ttlParser) sniffBoolean() (string, bool) {
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

func (p *ttlParser) parseIRIRef() (string, error) {
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
			if p.base != "" && !strings.Contains(iri, ":") {
				iri = p.base + iri
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

func (p *ttlParser) readEscape() (rune, error) {
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
			d := hexVal(h)
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

func hexVal(r rune) int {
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

func (p *ttlParser) parseBlankLabel() (Term, error) {
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

func (p *ttlParser) freshBlank() Term {
	p.bnodeSeq++
	return NewBlank(fmt.Sprintf("genid%d", p.bnodeSeq))
}

func (p *ttlParser) parseBlankPropertyList() (Term, error) {
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

func (p *ttlParser) parseCollection() (Term, error) {
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

func (p *ttlParser) parseLiteral() (Term, error) {
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
			if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '-' {
				lang.WriteRune(r)
				continue
			}
			p.unread(r)
			break
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

func (p *ttlParser) parseNumber() (Term, error) {
	var b strings.Builder
	sawDot, sawExp := false, false
	for {
		r, err := p.read()
		if err != nil {
			break
		}
		switch {
		case unicode.IsDigit(r) || r == '+' || r == '-':
			b.WriteRune(r)
		case r == '.':
			// A '.' followed by a non-digit terminates the statement instead.
			nxt, err2 := p.peek()
			if err2 != nil || !unicode.IsDigit(nxt) {
				p.unread(r)
				return p.finishNumber(b.String(), sawDot, sawExp)
			}
			sawDot = true
			b.WriteRune(r)
		case r == 'e' || r == 'E':
			sawExp = true
			b.WriteRune(r)
		default:
			p.unread(r)
			return p.finishNumber(b.String(), sawDot, sawExp)
		}
	}
	return p.finishNumber(b.String(), sawDot, sawExp)
}

func (p *ttlParser) finishNumber(lex string, sawDot, sawExp bool) (Term, error) {
	if lex == "" || lex == "+" || lex == "-" {
		return Term{}, p.errf("malformed number")
	}
	switch {
	case sawExp:
		return NewTyped(lex, XSDDouble), nil
	case sawDot:
		return NewTyped(lex, XSDDecimal), nil
	default:
		return NewTyped(lex, XSDInteger), nil
	}
}

func (p *ttlParser) parsePrefixedName() (Term, error) {
	var b strings.Builder
	for {
		r, err := p.read()
		if err != nil {
			break
		}
		if unicode.IsLetter(r) || unicode.IsDigit(r) || strings.ContainsRune(":_-%", r) {
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

// WriteNTriples serializes the graph as sorted N-Triples.
func WriteNTriples(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for _, t := range g.Triples() {
		if _, err := bw.WriteString(t.String()); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteTurtle serializes the graph as Turtle, compacting IRIs with the given
// prefix map (label -> namespace) plus the well-known prefixes.
func WriteTurtle(w io.Writer, g *Graph, prefixes map[string]string) error {
	bw := bufio.NewWriter(w)
	all := make(map[string]string, len(prefixes)+len(WellKnownPrefixes))
	for k, v := range WellKnownPrefixes {
		all[k] = v
	}
	for k, v := range prefixes {
		all[k] = v
	}
	labels := make([]string, 0, len(all))
	for k := range all {
		labels = append(labels, k)
	}
	sortStrings(labels)
	for _, l := range labels {
		fmt.Fprintf(bw, "@prefix %s: <%s> .\n", l, all[l])
	}
	fmt.Fprintln(bw)
	compact := func(t Term) string {
		if t.Kind == KindIRI {
			for _, l := range labels {
				ns := all[l]
				if strings.HasPrefix(t.Value, ns) {
					local := t.Value[len(ns):]
					if isPNLocal(local) {
						return l + ":" + local
					}
				}
			}
		}
		return t.String()
	}
	// "a" abbreviates rdf:type only as a predicate; elsewhere it is no term.
	predicate := func(t Term) string {
		if t.Value == RDFType {
			return "a"
		}
		return compact(t)
	}
	var prevSubj Term
	first := true
	for _, t := range g.Triples() {
		if t.S != prevSubj {
			if !first {
				fmt.Fprintln(bw, " .")
			}
			fmt.Fprintf(bw, "%s %s %s", compact(t.S), predicate(t.P), compact(t.O))
			prevSubj = t.S
			first = false
			continue
		}
		fmt.Fprintf(bw, " ;\n    %s %s", predicate(t.P), compact(t.O))
	}
	if !first {
		fmt.Fprintln(bw, " .")
	}
	return bw.Flush()
}

func isPNLocal(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' && r != '-' {
			return false
		}
	}
	return true
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
