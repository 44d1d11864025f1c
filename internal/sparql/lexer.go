package sparql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokKeyword
	tokVar     // ?x or $x (name without sigil)
	tokIRI     // <...> (expanded value)
	tokPName   // prefix:local (raw, expansion happens in parser)
	tokLiteral // string literal body
	tokNumber  // numeric literal lexical form
	tokPunct   // single/multi char punctuation: { } ( ) . ; , = != <= >= < > && || ! + - * / ^ | ?
	tokLangTag // @en
	tokDTSep   // ^^
	tokA       // the keyword 'a'
)

type token struct {
	kind tokKind
	text string
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "EOF"
	case tokVar:
		return "?" + t.text
	case tokIRI:
		return "<" + t.text + ">"
	default:
		return t.text
	}
}

// sparqlKeywords is the set of case-insensitive reserved words recognized by
// the lexer, SPARQL Update's included. Everything else alphabetic becomes a
// PName candidate.
var sparqlKeywords = wordSet(`SELECT DISTINCT REDUCED WHERE GROUP BY HAVING ORDER ASC DESC
	LIMIT OFFSET PREFIX BASE AS FILTER OPTIONAL UNION MINUS BIND VALUES UNDEF ASK CONSTRUCT
	DESCRIBE FROM NAMED EXISTS NOT IN TRUE FALSE SEPARATOR GRAPH INSERT DELETE DATA CLEAR ALL`)

// aggregateNames recognizes aggregate function keywords.
var aggregateNames = wordSet("COUNT SUM AVG MIN MAX GROUP_CONCAT SAMPLE")

// builtinNames recognizes non-aggregate builtin call keywords.
var builtinNames = wordSet(`STR LANG LANGMATCHES DATATYPE BOUND IRI URI BNODE RAND ABS CEIL
	FLOOR ROUND CONCAT STRLEN UCASE LCASE ENCODE_FOR_URI CONTAINS STRSTARTS STRENDS STRBEFORE
	STRAFTER YEAR MONTH DAY HOURS MINUTES SECONDS TIMEZONE TZ NOW UUID STRUUID MD5 SHA1 SHA256
	COALESCE IF STRLANG STRDT SAMETERM ISIRI ISURI ISBLANK ISLITERAL ISNUMERIC REGEX SUBSTR REPLACE`)

func wordSet(words string) map[string]bool {
	set := map[string]bool{}
	for _, w := range strings.Fields(words) {
		set[w] = true
	}
	return set
}

type lexError struct {
	line, col int
	msg       string
}

func (e *lexError) Error() string {
	return fmt.Sprintf("sparql: line %d col %d: %s", e.line, e.col, e.msg)
}

// lexer walks the query's bytes a rune at a time. A token's text is a
// substring of the query; only a string literal with an escape builds a new
// string, and an IRI or string holding invalid UTF-8 gets U+FFFD for each bad
// byte, as a []rune conversion of the query would give it. line and col
// count runes.
type lexer struct {
	src       string
	pos       int // byte offset
	line, col int
	toks      []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1, col: 1, toks: make([]token, 0, min(len(src)/5+1, 4096))}
	if err := l.run(); err != nil {
		return nil, err
	}
	return l.toks, nil
}

func (l *lexer) errf(format string, args ...any) error {
	return &lexError{line: l.line, col: l.col, msg: fmt.Sprintf(format, args...)}
}

// runeAt decodes the rune at byte offset i: 0 and width 0 past the end.
func (l *lexer) runeAt(i int) (rune, int) {
	if i >= len(l.src) {
		return 0, 0
	}
	if c := l.src[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[i:])
}

func (l *lexer) cur() rune {
	r, _ := l.runeAt(l.pos)
	return r
}

// next returns the rune after the current one.
func (l *lexer) next() rune {
	_, w := l.runeAt(l.pos)
	r, _ := l.runeAt(l.pos + w)
	return r
}

func (l *lexer) advance() rune {
	r, w := l.runeAt(l.pos)
	l.pos += w
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *lexer) emit(kind tokKind, text string, line, col int) {
	l.toks = append(l.toks, token{kind: kind, text: text, line: line, col: col})
}

// text is the query's text from byte start to the current position.
func (l *lexer) text(start int) string { return l.src[start:l.pos] }

// validText gives each invalid UTF-8 byte of s as U+FFFD.
func validText(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	return string([]rune(s))
}

func (l *lexer) run() error {
	for l.pos < len(l.src) {
		r := l.cur()
		line, col, start, iriEnd := l.line, l.col, l.pos, -1
		if r == '<' {
			iriEnd = l.iriEnd()
		}
		switch {
		case unicode.IsSpace(r):
			l.advance()
		case r == '#':
			for l.pos < len(l.src) && l.cur() != '\n' {
				l.advance()
			}
		case r == '?' || r == '$':
			// A variable only if followed by a name char; bare '?' is the
			// zero-or-one path modifier.
			l.advance()
			if nxt := l.cur(); unicode.IsLetter(nxt) || unicode.IsDigit(nxt) || nxt == '_' {
				l.lexName()
				l.emit(tokVar, l.text(start+1), line, col)
			} else {
				l.emit(tokPunct, "?", line, col)
			}
		case iriEnd >= 0:
			for l.pos <= iriEnd {
				l.advance()
			}
			l.emit(tokIRI, validText(l.src[start+1:iriEnd]), line, col)
		case r == '"' || r == '\'':
			s, err := l.lexString()
			if err != nil {
				return err
			}
			l.emit(tokLiteral, s, line, col)
		case r == '@':
			l.advance()
			for c := l.cur(); unicode.IsLetter(c) || unicode.IsDigit(c) || c == '-'; c = l.cur() {
				l.advance()
			}
			l.emit(tokLangTag, l.text(start+1), line, col)
		case unicode.IsDigit(r) || (r == '.' && unicode.IsDigit(l.next())):
			l.lexNumber()
			l.emit(tokNumber, l.text(start), line, col)
		case r == '+' || r == '-':
			// Sign glued to a digit is a signed number.
			signed := unicode.IsDigit(l.next())
			if l.advance(); signed {
				l.lexNumber()
				l.emit(tokNumber, l.text(start), line, col)
			} else {
				l.emit(tokPunct, l.text(start), line, col)
			}
		case strings.ContainsRune("{}().,;*/=!<>&|^", r):
			// One character, or two: <= != >= && || and the datatype's ^^.
			switch two := l.src[start:min(start+2, len(l.src))]; {
			case two == "&&" || two == "||" || two == "^^" || two[len(two)-1] == '=' && strings.ContainsRune("<!>", r):
				l.advance()
			case r == '&':
				return l.errf("unexpected '&'")
			}
			l.advance()
			kind := tokPunct
			if l.text(start) == "^^" {
				kind = tokDTSep
			}
			l.emit(kind, l.text(start), line, col)
		case r == '_' && l.next() == ':':
			l.advance()
			l.advance()
			l.lexName()
			l.emit(tokPName, l.text(start), line, col)
		case unicode.IsLetter(r) || r == '_':
			l.lexPNameOrKeyword()
			word := l.text(start)
			switch {
			case word == "a":
				l.emit(tokA, "a", line, col)
			case strings.Contains(word, ":"):
				l.emit(tokPName, word, line, col)
			default:
				upper := strings.ToUpper(word)
				if !sparqlKeywords[upper] && !aggregateNames[upper] && !builtinNames[upper] {
					return l.errf("unexpected identifier %q (missing ':'?)", word)
				}
				l.emit(tokKeyword, upper, line, col)
			}
		default:
			return l.errf("unexpected character %q", r)
		}
	}
	l.emit(tokEOF, "", l.line, l.col)
	return nil
}

// iriEnd returns the offset of the '>' that closes the IRI the '<' at pos
// opens, or -1 when the '<' is a comparison: an IRI is a run of non-space
// runes other than '<'.
func (l *lexer) iriEnd() int {
	for i := l.pos + 1; i < len(l.src); {
		r, w := l.runeAt(i)
		switch {
		case r == '>':
			return i
		case unicode.IsSpace(r) || r == '<':
			return -1
		}
		i += w
	}
	return -1
}

// lexString reads a quoted literal: a substring of the query, or — once an
// escape is met — the unescaped text built in b.
func (l *lexer) lexString() (string, error) {
	quote := l.advance()
	start := l.pos
	var b []byte
	for l.pos < len(l.src) {
		end := l.pos
		r := l.advance()
		if r == quote {
			if b == nil {
				return validText(l.src[start:end]), nil
			}
			return string(b), nil
		}
		if r == '\\' {
			if b == nil {
				b = []byte(validText(l.src[start:end]))
			}
			if l.pos >= len(l.src) {
				return "", l.errf("unterminated escape")
			}
			e := l.advance()
			switch e {
			case 'n':
				b = append(b, '\n')
			case 't':
				b = append(b, '\t')
			case 'r':
				b = append(b, '\r')
			case '"', '\'', '\\':
				b = append(b, byte(e))
			default:
				return "", l.errf("unknown escape \\%c", e)
			}
			continue
		}
		if b != nil {
			b = utf8.AppendRune(b, r)
		}
	}
	return "", l.errf("unterminated string literal")
}

func (l *lexer) lexNumber() {
	for l.pos < len(l.src) {
		r := l.cur()
		if !unicode.IsDigit(r) && r != '.' && r != 'e' && r != 'E' {
			return
		}
		nxt := l.next()
		switch {
		case r == '.' && !unicode.IsDigit(nxt):
			return // a '.' not followed by a digit terminates the number
		case r == 'e' || r == 'E':
			if !unicode.IsDigit(nxt) && nxt != '+' && nxt != '-' {
				return
			}
			if l.advance(); nxt == '+' || nxt == '-' { // e, and its sign
				l.advance()
			}
		default:
			l.advance()
		}
	}
}

func (l *lexer) lexName() {
	for r := l.cur(); l.pos < len(l.src) && (unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'); r = l.cur() {
		l.advance()
	}
}

// lexPNameOrKeyword reads a word that may contain one ':' (prefixed name)
// and name characters including '-' and '.' (dot only when followed by a
// name character).
func (l *lexer) lexPNameOrKeyword() {
	for l.pos < len(l.src) {
		r := l.cur()
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == ':':
			l.advance()
		case r == '.':
			nxt := l.next()
			if !unicode.IsLetter(nxt) && !unicode.IsDigit(nxt) && nxt != '_' {
				return
			}
			l.advance()
		default:
			return
		}
	}
}
