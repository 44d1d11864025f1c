package rdf

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
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
//
// It scans one byte buffer: buf[off:] is the unread input, and need reads
// more in fixed chunks behind it, first moving it to the front. A term's
// lexical form goes onto hold, a stack each parse function truncates once the
// terms it pushed are emitted. An emitted triple is interned into the graph
// there and then, subject, predicate, object, so terms get their IDs in
// emission order; a term the dictionary holds is found from hold's bytes.
type ttlParser struct {
	r         io.Reader
	buf       []byte
	off       int
	eof       bool
	fail      error // a read error or invalid UTF-8: the load's error
	line, col int   // the position of buf[0]
	base      string
	prefixes  map[string]string
	bnodeSeq  int
	hold      []byte
	g         *Graph
	shapes    map[string]uint32 // a literal's dictionary shape by its tag
	keys      []key             // the emitted triples, (s, p, o) of IDs
}

// pterm is a recognized term: its ID once interned, else its lexical form
// hold[lo:mid] and, for a literal, its tag hold[mid:hi] — "@" and the
// language, "^" and the datatype IRI, or nothing for xsd:string.
type pterm struct {
	id          ID
	kind        TermKind
	lo, mid, hi int
}

// LoadTurtle parses Turtle (or N-Triples) from r into a new graph. Terms get
// the dictionary IDs a loop of Add over the document's triples would give
// them, and the triples go into the graph in one bulk load at the end; a
// document with a syntax error yields no graph.
func LoadTurtle(r io.Reader) (*Graph, error) {
	p := &ttlParser{
		r:        r,
		buf:      make([]byte, 0, 64<<10),
		line:     1,
		prefixes: maps.Clone(WellKnownPrefixes),
		g:        NewGraph(),
		shapes:   map[string]uint32{},
	}
	err := p.parseDocument()
	if p.fail != nil {
		err = p.fail
	}
	if err != nil {
		return nil, err
	}
	p.g.addKeysLocked(p.keys)
	return p.g, nil
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

// need reports whether n unread bytes are buffered, reading more input when
// they are not.
func (p *ttlParser) need(n int) bool {
	return len(p.buf)-p.off >= n || p.fill(n)
}

func (p *ttlParser) fill(n int) bool {
	for len(p.buf)-p.off < n && !p.eof {
		if p.off > 0 {
			p.line, p.col = advance(p.line, p.col, p.buf[:p.off])
			p.buf = p.buf[:copy(p.buf, p.buf[p.off:])]
			p.off = 0
		}
		if len(p.buf) == cap(p.buf) {
			p.buf = slices.Grow(p.buf, n)
		}
		m, err := p.r.Read(p.buf[len(p.buf):cap(p.buf)])
		p.buf = p.buf[:len(p.buf)+m]
		if err != nil {
			p.eof = true
			if err != io.EOF {
				p.fail = fmt.Errorf("turtle: read: %w", err)
			}
		}
	}
	return len(p.buf)-p.off >= n
}

// advance returns the position after b of a position (line, col).
func advance(line, col int, b []byte) (int, int) {
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		line, col, b = line+bytes.Count(b, []byte{'\n'}), 0, b[i+1:]
	}
	return line, col + utf8.RuneCount(b)
}

func (p *ttlParser) errf(format string, args ...any) error {
	line, col := advance(p.line, p.col, p.buf[:p.off])
	return &ParseError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// at returns the byte i past the cursor, or 0 past the end of the input.
func (p *ttlParser) at(i int) byte {
	if p.need(i + 1) {
		return p.buf[p.off+i]
	}
	return 0
}

// runeAt decodes the rune i bytes past the cursor; its width is 0 past the
// end of the input, and a byte sequence that is not UTF-8 is an error.
func (p *ttlParser) runeAt(i int) (rune, int, error) {
	if !p.need(i + 1) {
		return 0, 0, nil
	}
	if c := p.buf[p.off+i]; c < utf8.RuneSelf {
		return rune(c), 1, nil
	}
	p.need(i + utf8.UTFMax)
	r, w := utf8.DecodeRune(p.buf[p.off+i:])
	if r == utf8.RuneError && w == 1 {
		p.off += i
		p.fail = p.errf("invalid UTF-8")
		return 0, 0, p.fail
	}
	return r, w, nil
}

// take moves n bytes from the cursor onto hold.
func (p *ttlParser) take(n int) {
	p.hold = append(p.hold, p.buf[p.off:p.off+n]...)
	p.off += n
}

// term returns the term whose lexical form hold has from lo on.
func (p *ttlParser) term(kind TermKind, lo int) pterm {
	return pterm{kind: kind, lo: lo, mid: len(p.hold), hi: len(p.hold)}
}

// constant pushes a term with a fixed lexical form.
func (p *ttlParser) constant(kind TermKind, value string) pterm {
	lo := len(p.hold)
	p.hold = append(p.hold, value...)
	return p.term(kind, lo)
}

// typed ends the literal whose lexical form hold has from lo on with a
// datatype.
func (p *ttlParser) typed(lo int, datatype string) pterm {
	mid := len(p.hold)
	p.hold = append(append(p.hold, '^'), datatype...)
	return pterm{kind: KindLiteral, lo: lo, mid: mid, hi: len(p.hold)}
}

// emit keeps the triple (s, pr, o), interning its terms in that order.
func (p *ttlParser) emit(s, pr, o *pterm) {
	p.keys = append(p.keys, key{p.intern(s), p.intern(pr), p.intern(o)})
}

func (p *ttlParser) intern(t *pterm) ID {
	if t.id == 0 {
		shape := uint32(t.kind)
		if t.kind == KindLiteral {
			shape = p.shape(p.hold[t.mid:t.hi])
		}
		t.id = p.g.dict.internLex(p.hold[t.lo:t.mid], shape)
	}
	return t.id
}

// shape returns the dictionary shape of the literals with a tag.
func (p *ttlParser) shape(tag []byte) uint32 {
	if s, ok := p.shapes[string(tag)]; ok {
		return s
	}
	t := Term{Kind: KindLiteral, Datatype: XSDString}
	if len(tag) > 0 && tag[0] == '@' {
		t.Datatype, t.Lang = RDFLangString, string(tag[1:])
	} else if len(tag) > 0 {
		t.Datatype = string(tag[1:])
	}
	s := p.g.dict.shape(t)
	p.shapes[string(tag)] = s
	return s
}

// skipWS consumes whitespace and comments; returns io.EOF at end of input.
func (p *ttlParser) skipWS() error {
	comment := false
	for {
		r, w, err := p.runeAt(0)
		switch {
		case err != nil:
			return err
		case w == 0:
			return io.EOF
		case r == '\n':
			comment = false
		case comment || r == '#':
			comment = true
		case !unicode.IsSpace(r):
			return nil
		}
		p.off += w
	}
}

func (p *ttlParser) expect(want rune) error {
	r, w, err := p.runeAt(0)
	if err != nil {
		return err
	}
	if w == 0 {
		return p.errf("expected %q, got EOF", want)
	}
	p.off += w
	if r != want {
		return p.errf("expected %q, got %q", want, r)
	}
	return nil
}

// span returns how many bytes the runes at the cursor that ok accepts take,
// leaving them unread.
func (p *ttlParser) span(ok func(rune) bool) (int, error) {
	for n := 0; ; {
		r, w, err := p.runeAt(n)
		if err != nil || w == 0 || !ok(r) {
			return n, err
		}
		n += w
	}
}

func (p *ttlParser) parseDocument() error {
	for {
		if err := p.skipWS(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		var err error
		switch p.at(0) {
		case '@':
			p.off++
			err = p.parseDirective(true)
		case 'P', 'p', 'B', 'b':
			err = p.parseDirective(false)
		default:
			err = p.parseTriples()
		}
		if err != nil {
			return err
		}
	}
}

// parseDirective parses "@prefix" and "@base" (after the '@': dotted) and
// their SPARQL forms PREFIX and BASE, any case, without the dot. A word that
// is no directive is an error after an '@' and else starts a statement.
func (p *ttlParser) parseDirective(dotted bool) error {
	n, err := p.span(unicode.IsLetter)
	if err != nil {
		return err
	}
	word := p.buf[p.off : p.off+n]
	kw := "base"
	switch {
	case dotted && len(word) == 0:
		return p.errf("expected word")
	case dotted && string(word) == "prefix", !dotted && isKeyword(word, "prefix"):
		kw = "prefix"
	case dotted && string(word) == "base", !dotted && isKeyword(word, "base"):
	case dotted:
		p.off += len(word)
		return p.errf("unknown directive @%s", p.buf[p.off-len(word):p.off])
	default:
		return p.parseTriples()
	}
	p.off += len(word)
	if err := p.skipWS(); err != nil {
		return p.errf("unexpected EOF after %s", kw)
	}
	label := ""
	if kw == "prefix" {
		if label, err = p.prefixLabel(); err != nil {
			return err
		}
		if err := p.skipWS(); err != nil {
			return p.errf("unexpected EOF in prefix declaration")
		}
	}
	lo := len(p.hold)
	_, err = p.iri()
	iri := string(p.hold[lo:])
	p.hold = p.hold[:lo]
	if err != nil {
		return err
	}
	if kw == "prefix" {
		p.prefixes[label] = iri
	} else {
		p.base = iri
	}
	if !dotted {
		return nil
	}
	if err := p.skipWS(); err != nil {
		return p.errf("unexpected EOF, expected '.'")
	}
	return p.expect('.')
}

// isKeyword reports whether a run of letters is kw once lowercased. A run
// the length of kw matches only if it is ASCII; a longer one only if some
// letters lowercase to ASCII ones (as 'İ' does to 'i').
func isKeyword(word []byte, kw string) bool {
	if len(word) == len(kw) {
		return bytes.EqualFold(word, []byte(kw))
	}
	return utf8.RuneCount(word) == len(kw) && strings.ToLower(string(word)) == kw
}

// prefixLabel reads "label:" and returns label (may be empty).
func (p *ttlParser) prefixLabel() (string, error) {
	n, err := p.span(func(r rune) bool { return r != ':' && !unicode.IsSpace(r) })
	if err != nil {
		return "", err
	}
	label := string(p.buf[p.off : p.off+n])
	p.off += n
	r, w, _ := p.runeAt(0)
	p.off += w
	switch {
	case w == 0:
		return "", p.errf("unexpected EOF in prefix label")
	case r != ':':
		return "", p.errf("prefix label must end with ':'")
	}
	return label, nil
}

func (p *ttlParser) parseTriples() error {
	lo := len(p.hold)
	subj, err := p.parseSubject()
	if err != nil {
		return err
	}
	if err := p.parsePredicateObjectList(&subj); err != nil {
		return err
	}
	p.hold = p.hold[:lo]
	if err := p.skipWS(); err != nil {
		return p.errf("unexpected EOF, expected '.'")
	}
	return p.expect('.')
}

// parseSubject reads what a subject can be: an IRI, a blank node or a
// collection. These are also the objects that are not literals.
func (p *ttlParser) parseSubject() (pterm, error) {
	switch p.at(0) {
	case '<':
		return p.iri()
	case '_':
		return p.parseBlankLabel()
	case '[':
		return p.parseBlankPropertyList()
	case '(':
		return p.parseCollection()
	}
	return p.prefixedName()
}

func (p *ttlParser) parsePredicateObjectList(subj *pterm) error {
	for {
		if err := p.skipWS(); err != nil {
			return p.errf("unexpected EOF in predicate-object list")
		}
		lo := len(p.hold)
		pred, err := p.parsePredicate()
		if err != nil {
			return err
		}
		if err := p.parseObjectList(subj, &pred); err != nil {
			return err
		}
		p.hold = p.hold[:lo]
		if err := p.skipWS(); err != nil {
			return p.errf("unexpected EOF after object list")
		}
		if p.at(0) != ';' {
			return nil
		}
		p.off++
		// Allow trailing ';' before '.' or ']'.
		if err := p.skipWS(); err != nil {
			return p.errf("unexpected EOF after ';'")
		}
		if c := p.at(0); c == '.' || c == ']' {
			return nil
		}
	}
}

func (p *ttlParser) parsePredicate() (pterm, error) {
	switch p.at(0) {
	case '<':
		return p.iri()
	case 'a': // the 'a' keyword, when whitespace or the end of input follows
		r, w, err := p.runeAt(1)
		if err != nil {
			return pterm{}, err
		}
		if w == 0 || unicode.IsSpace(r) {
			p.off++
			return p.constant(KindIRI, RDFType), nil
		}
	}
	return p.prefixedName()
}

func (p *ttlParser) parseObjectList(subj, pred *pterm) error {
	for {
		if err := p.skipWS(); err != nil {
			return p.errf("unexpected EOF, expected object")
		}
		lo := len(p.hold)
		obj, err := p.parseObject()
		if err != nil {
			return err
		}
		p.emit(subj, pred, &obj)
		p.hold = p.hold[:lo]
		if err := p.skipWS(); err != nil {
			return p.errf("unexpected EOF after object")
		}
		if p.at(0) != ',' {
			return nil
		}
		p.off++
	}
}

func (p *ttlParser) parseObject() (pterm, error) {
	r, _, err := p.runeAt(0)
	if err != nil {
		return pterm{}, err
	}
	switch {
	case r == '<' || r == '_' || r == '[' || r == '(':
		return p.parseSubject()
	case r == '"' || r == '\'':
		return p.parseLiteral()
	case r == '+' || r == '-' || unicode.IsDigit(r) || r == '.' && isDecimal(p.at(1)):
		return p.parseNumber()
	}
	for _, word := range [...]string{"true", "false"} {
		if !p.need(len(word)) || string(p.buf[p.off:p.off+len(word)]) != word {
			continue
		}
		// A boolean when a delimiter or the end of input follows.
		r, w, err := p.runeAt(len(word))
		if err != nil {
			return pterm{}, err
		}
		if w == 0 || unicode.IsSpace(r) || strings.ContainsRune(".;,)]", r) {
			lo := len(p.hold)
			p.take(len(word))
			return p.typed(lo, XSDBoolean), nil
		}
	}
	return p.prefixedName()
}

// iri reads an IRIREF, resolved against the base.
func (p *ttlParser) iri() (pterm, error) {
	lo := len(p.hold)
	if err := p.expect('<'); err != nil {
		return pterm{}, err
	}
	if err := p.text('>', "IRI"); err != nil {
		return pterm{}, err
	}
	p.off++
	if p.base != "" {
		iri := ResolveIRI(p.base, string(p.hold[lo:]))
		p.hold = append(p.hold[:lo], iri...)
	}
	return p.term(KindIRI, lo), nil
}

// text moves input onto hold, decoding escapes, up to the next stop byte,
// which it leaves unread; the input ending first is an error in the token
// named what.
func (p *ttlParser) text(stop byte, what string) error {
	for {
		i := p.off
		for i < len(p.buf) && p.buf[i] != stop && p.buf[i] != '\\' && p.buf[i] < utf8.RuneSelf {
			i++
		}
		p.take(i - p.off)
		r, w, err := p.runeAt(0)
		switch {
		case err != nil:
			return err
		case w == 0:
			return p.errf("unterminated %s", what)
		case r == rune(stop):
			return nil
		case r == '\\':
			p.off++
			if err := p.escape(); err != nil {
				return err
			}
		default:
			p.take(w)
		}
	}
}

// escape decodes the escape sequence after a backslash onto hold.
func (p *ttlParser) escape() error {
	r, w, err := p.runeAt(0)
	if err != nil {
		return err
	}
	if w == 0 {
		return p.errf("unterminated escape")
	}
	p.off += w
	if i := strings.IndexRune("tnrbf\"'\\", r); i >= 0 {
		p.hold = append(p.hold, "\t\n\r\b\f\"'\\"[i])
		return nil
	}
	n := 4
	if r == 'U' {
		n = 8
	} else if r != 'u' {
		return p.errf("unknown escape \\%c", r)
	}
	var v rune
	for range n {
		r, w, _ := p.runeAt(0)
		if w == 0 {
			return p.errf("unterminated unicode escape")
		}
		p.off += w
		d := hexVal(r)
		if d < 0 {
			return p.errf("bad hex digit %q in unicode escape", r)
		}
		v = v<<4 | rune(d)
	}
	p.hold = utf8.AppendRune(p.hold, v)
	return nil
}

func hexVal(r rune) int {
	if 'A' <= r && r <= 'F' {
		r += 'a' - 'A'
	}
	return strings.IndexRune("0123456789abcdef", r)
}

// parseBlankLabel, parseBlankPropertyList and parseCollection start at the
// byte that chose them.
func (p *ttlParser) parseBlankLabel() (pterm, error) {
	p.off++ // '_'
	if err := p.expect(':'); err != nil {
		return pterm{}, err
	}
	n, err := p.span(func(r rune) bool {
		return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
	})
	if err != nil {
		return pterm{}, err
	}
	if n == 0 {
		return pterm{}, p.errf("empty blank node label")
	}
	lo := len(p.hold)
	p.take(n)
	return p.term(KindBlank, lo), nil
}

func (p *ttlParser) freshBlank() pterm {
	p.bnodeSeq++
	lo := len(p.hold)
	p.hold = strconv.AppendInt(append(p.hold, "genid"...), int64(p.bnodeSeq), 10)
	return p.term(KindBlank, lo)
}

func (p *ttlParser) parseBlankPropertyList() (pterm, error) {
	p.off++ // '['
	node := p.freshBlank()
	if err := p.skipWS(); err != nil {
		return pterm{}, p.errf("unterminated blank node property list")
	}
	if p.at(0) == ']' {
		p.off++
		return node, nil
	}
	if err := p.parsePredicateObjectList(&node); err != nil {
		return pterm{}, err
	}
	if err := p.skipWS(); err != nil {
		return pterm{}, p.errf("unterminated blank node property list")
	}
	return node, p.expect(']')
}

// parseCollection reads "( items )". Its list triples are emitted once the
// ')' is read, after those of any blank node property list among the items.
func (p *ttlParser) parseCollection() (pterm, error) {
	p.off++ // '('
	var items []pterm
	for {
		if err := p.skipWS(); err != nil {
			return pterm{}, p.errf("unterminated collection")
		}
		if p.at(0) == ')' {
			p.off++
			break
		}
		item, err := p.parseObject()
		if err != nil {
			return pterm{}, err
		}
		items = append(items, item)
	}
	if len(items) == 0 {
		return p.constant(KindIRI, RDFNil), nil
	}
	first, rest, nilList := p.constant(KindIRI, RDFFirst), p.constant(KindIRI, RDFRest), p.constant(KindIRI, RDFNil)
	head := p.freshBlank()
	cur := head
	for i := range items {
		p.emit(&cur, &first, &items[i])
		next := nilList
		if i < len(items)-1 {
			next = p.freshBlank()
		}
		p.emit(&cur, &rest, &next)
		cur = next
	}
	return head, nil
}

func (p *ttlParser) parseLiteral() (pterm, error) {
	quote := p.buf[p.off]
	long := p.need(3) && p.buf[p.off+1] == quote && p.buf[p.off+2] == quote
	if long {
		p.off += 3
	} else {
		p.off++
	}
	lo := len(p.hold)
	for {
		if err := p.text(quote, "string literal"); err != nil {
			return pterm{}, err
		}
		if !long {
			p.off++
			break
		}
		if p.need(3) && p.buf[p.off+1] == quote && p.buf[p.off+2] == quote {
			p.off += 3
			break
		}
		p.take(1) // a quote inside a long string
	}
	// Optional @lang or ^^datatype suffix.
	mid := len(p.hold)
	switch p.at(0) {
	case '@':
		p.off++
		n := 0
		for c := p.at(0); c == '-' || isDecimal(c) || 'a' <= c|0x20 && c|0x20 <= 'z'; c = p.at(n) {
			n++
		}
		if !isLangTag(p.buf[p.off : p.off+n]) {
			p.off += n
			return pterm{}, p.errf("malformed language tag %q", p.buf[p.off-n:p.off])
		}
		p.hold = append(p.hold, '@')
		p.take(n)
	case '^':
		p.off++
		if err := p.expect('^'); err != nil {
			return pterm{}, err
		}
		if !p.need(1) {
			return pterm{}, p.errf("expected datatype after '^^'")
		}
		p.hold = append(p.hold, '^')
		datatype := p.prefixedName
		if p.at(0) == '<' {
			datatype = p.iri
		}
		if _, err := datatype(); err != nil {
			return pterm{}, err
		}
	}
	return pterm{kind: KindLiteral, lo: lo, mid: mid, hi: len(p.hold)}, nil
}

// isLangTag reports whether tag matches LANGTAG without its '@':
// [a-zA-Z]+ ('-' [a-zA-Z0-9]+)*; tag holds only ASCII letters, digits and '-'.
func isLangTag(tag []byte) bool {
	first := bytes.IndexByte(tag, '-')
	if first < 0 {
		first = len(tag)
	}
	return first > 0 && !bytes.ContainsAny(tag[:first], "0123456789") &&
		tag[len(tag)-1] != '-' && !bytes.Contains(tag, []byte("--"))
}

func isDecimal(c byte) bool { return '0' <= c && c <= '9' }

// parseNumber reads INTEGER, DECIMAL or DOUBLE: [+-]? digits, a fraction
// when a '.' is followed by a digit (or, after digits, by an exponent), and
// an exponent [eE][+-]?[0-9]+. A '.' that starts neither ends the statement.
func (p *ttlParser) parseNumber() (pterm, error) {
	lo, datatype := len(p.hold), XSDInteger
	if c := p.at(0); c == '+' || c == '-' {
		p.take(1)
	}
	n := p.digits()
	if p.at(0) == '.' && (isDecimal(p.at(1)) || n > 0 && p.exponent(1)) {
		p.take(1)
		datatype = XSDDecimal
		n += p.digits()
	}
	if n == 0 {
		return pterm{}, p.errf("malformed number")
	}
	if c := p.at(0); c == 'e' || c == 'E' {
		if !p.exponent(0) {
			return pterm{}, p.errf("malformed number")
		}
		p.take(1)
		if c := p.at(0); c == '+' || c == '-' {
			p.take(1)
		}
		p.digits()
		datatype = XSDDouble
	}
	return p.typed(lo, datatype), nil
}

// digits moves [0-9]* onto hold and returns how many it moved.
func (p *ttlParser) digits() int {
	n := 0
	for ; isDecimal(p.at(0)); n++ {
		p.take(1)
	}
	return n
}

// exponent reports whether [eE] [+-]? [0-9] starts i bytes past the cursor.
func (p *ttlParser) exponent(i int) bool {
	if c := p.at(i); c != 'e' && c != 'E' {
		return false
	}
	if c := p.at(i + 1); c == '+' || c == '-' {
		i++
	}
	return isDecimal(p.at(i + 1))
}

// prefixedName reads a prefixed name as the IRI it stands for. The name
// stays unread in the buffer until its end is found.
func (p *ttlParser) prefixedName() (pterm, error) {
	n, colon := 0, -1
	for {
		r, w, err := p.runeAt(n)
		if err != nil {
			return pterm{}, err
		}
		if r == '%' && w > 0 {
			if hexVal(rune(p.at(n+1))) < 0 || hexVal(rune(p.at(n+2))) < 0 {
				p.off += n + 1
				return pterm{}, p.errf("'%%' must be followed by two hex digits")
			}
			n += 3
			continue
		}
		if r == ':' && colon < 0 {
			colon = n
		}
		if w > 0 && (unicode.IsLetter(r) || unicode.IsDigit(r) || strings.ContainsRune(":_-", r)) {
			n += w
			continue
		}
		// A dot inside a pname is allowed only when followed by a name char;
		// a trailing dot terminates the statement instead.
		if r == '.' && w > 0 {
			next, _, err := p.runeAt(n + 1)
			if err != nil {
				return pterm{}, err
			}
			if unicode.IsLetter(next) || unicode.IsDigit(next) || next == '_' {
				n++
				continue
			}
		}
		break
	}
	name := p.buf[p.off : p.off+n]
	if n == 0 {
		r, w, _ := p.runeAt(0)
		if w == 0 {
			return pterm{}, p.errf("expected term, got EOF")
		}
		return pterm{}, p.errf("expected term, got %q", r)
	}
	p.off += n
	if colon < 0 {
		return pterm{}, p.errf("expected ':' in prefixed name %q", name)
	}
	ns, ok := p.prefixes[string(name[:colon])]
	if !ok {
		return pterm{}, p.errf("undefined prefix %q", name[:colon])
	}
	lo := len(p.hold)
	p.hold = append(append(p.hold, ns...), name[colon+1:]...)
	return p.term(KindIRI, lo), nil
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
	slices.Sort(labels)
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
