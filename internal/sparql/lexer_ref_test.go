package sparql

// The lexer as it was before it walked the query's bytes: it copies the
// query into a []rune and builds every token rune by rune. It is kept
// verbatim (renamed) as the oracle FuzzLex and TestLexMatchesReference hold
// lex to: the same tokens — kind, text, line, column — and the same error
// for every input.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unicode"
)

type refLexer struct {
	src       []rune
	pos       int
	line, col int
	toks      []token
}

func refLex(src string) ([]token, error) {
	l := &refLexer{src: []rune(src), line: 1, col: 1}
	if err := l.run(); err != nil {
		return nil, err
	}
	return l.toks, nil
}

func (l *refLexer) errf(format string, args ...any) error {
	return &lexError{line: l.line, col: l.col, msg: fmt.Sprintf(format, args...)}
}

func (l *refLexer) cur() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *refLexer) at(off int) rune {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *refLexer) advance() rune {
	r := l.src[l.pos]
	l.pos++
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *refLexer) emit(kind tokKind, text string, line, col int) {
	l.toks = append(l.toks, token{kind: kind, text: text, line: line, col: col})
}

func (l *refLexer) run() error {
	for l.pos < len(l.src) {
		r := l.cur()
		line, col := l.line, l.col
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
			if nxt := l.at(1); unicode.IsLetter(nxt) || unicode.IsDigit(nxt) || nxt == '_' {
				l.advance()
				name := l.lexName()
				l.emit(tokVar, name, line, col)
			} else {
				l.advance()
				l.emit(tokPunct, "?", line, col)
			}
		case r == '<':
			// IRI or comparison operator: IRI when followed by a non-space,
			// non-'=' run ending in '>'.
			if l.looksLikeIRI() {
				iri, err := l.lexIRI()
				if err != nil {
					return err
				}
				l.emit(tokIRI, iri, line, col)
			} else {
				l.advance()
				if l.cur() == '=' {
					l.advance()
					l.emit(tokPunct, "<=", line, col)
				} else {
					l.emit(tokPunct, "<", line, col)
				}
			}
		case r == '"' || r == '\'':
			s, err := l.lexString()
			if err != nil {
				return err
			}
			l.emit(tokLiteral, s, line, col)
		case r == '@':
			l.advance()
			var b strings.Builder
			for l.pos < len(l.src) {
				c := l.cur()
				if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '-' {
					b.WriteRune(c)
					l.advance()
					continue
				}
				break
			}
			l.emit(tokLangTag, b.String(), line, col)
		case r == '^':
			if l.at(1) == '^' {
				l.advance()
				l.advance()
				l.emit(tokDTSep, "^^", line, col)
			} else {
				l.advance()
				l.emit(tokPunct, "^", line, col)
			}
		case unicode.IsDigit(r) || (r == '.' && unicode.IsDigit(l.at(1))):
			l.emit(tokNumber, l.lexNumber(), line, col)
		case r == '+' || r == '-':
			// Sign glued to a digit is a signed number.
			if unicode.IsDigit(l.at(1)) {
				sign := string(l.advance())
				l.emit(tokNumber, sign+l.lexNumber(), line, col)
			} else {
				l.advance()
				l.emit(tokPunct, string(r), line, col)
			}
		case r == '!':
			l.advance()
			if l.cur() == '=' {
				l.advance()
				l.emit(tokPunct, "!=", line, col)
			} else {
				l.emit(tokPunct, "!", line, col)
			}
		case r == '>':
			l.advance()
			if l.cur() == '=' {
				l.advance()
				l.emit(tokPunct, ">=", line, col)
			} else {
				l.emit(tokPunct, ">", line, col)
			}
		case r == '&':
			if l.at(1) != '&' {
				return l.errf("unexpected '&'")
			}
			l.advance()
			l.advance()
			l.emit(tokPunct, "&&", line, col)
		case r == '|':
			if l.at(1) == '|' {
				l.advance()
				l.advance()
				l.emit(tokPunct, "||", line, col)
			} else {
				l.advance()
				l.emit(tokPunct, "|", line, col)
			}
		case r == '=':
			l.advance()
			l.emit(tokPunct, "=", line, col)
		case strings.ContainsRune("{}().,;*/", r):
			l.advance()
			l.emit(tokPunct, string(r), line, col)
		case r == '_' && l.at(1) == ':':
			l.advance()
			l.advance()
			name := l.lexName()
			l.emit(tokPName, "_:"+name, line, col)
		case unicode.IsLetter(r) || r == '_':
			word := l.lexPNameOrKeyword()
			upper := strings.ToUpper(word)
			switch {
			case word == "a":
				l.emit(tokA, "a", line, col)
			case strings.Contains(word, ":"):
				l.emit(tokPName, word, line, col)
			case sparqlKeywords[upper] || aggregateNames[upper] || builtinNames[upper]:
				l.emit(tokKeyword, upper, line, col)
			default:
				return l.errf("unexpected identifier %q (missing ':'?)", word)
			}
		default:
			return l.errf("unexpected character %q", r)
		}
	}
	l.emit(tokEOF, "", l.line, l.col)
	return nil
}

// looksLikeIRI scans ahead from '<' for '>' with no whitespace in between.
func (l *refLexer) looksLikeIRI() bool {
	for i := l.pos + 1; i < len(l.src); i++ {
		r := l.src[i]
		if r == '>' {
			return true
		}
		if unicode.IsSpace(r) || r == '<' {
			return false
		}
	}
	return false
}

func (l *refLexer) lexIRI() (string, error) {
	l.advance() // '<'
	var b strings.Builder
	for l.pos < len(l.src) {
		r := l.advance()
		if r == '>' {
			return b.String(), nil
		}
		b.WriteRune(r)
	}
	return "", l.errf("unterminated IRI")
}

func (l *refLexer) lexString() (string, error) {
	quote := l.advance()
	var b strings.Builder
	for l.pos < len(l.src) {
		r := l.advance()
		if r == quote {
			return b.String(), nil
		}
		if r == '\\' {
			if l.pos >= len(l.src) {
				return "", l.errf("unterminated escape")
			}
			e := l.advance()
			switch e {
			case 'n':
				b.WriteRune('\n')
			case 't':
				b.WriteRune('\t')
			case 'r':
				b.WriteRune('\r')
			case '"', '\'', '\\':
				b.WriteRune(e)
			default:
				return "", l.errf("unknown escape \\%c", e)
			}
			continue
		}
		b.WriteRune(r)
	}
	return "", l.errf("unterminated string literal")
}

func (l *refLexer) lexNumber() string {
	var b strings.Builder
	for l.pos < len(l.src) {
		r := l.cur()
		if unicode.IsDigit(r) || r == '.' || r == 'e' || r == 'E' {
			// A '.' not followed by a digit/e terminates the number.
			if r == '.' {
				nxt := l.at(1)
				if !unicode.IsDigit(nxt) {
					break
				}
			}
			if r == 'e' || r == 'E' {
				nxt := l.at(1)
				if !unicode.IsDigit(nxt) && nxt != '+' && nxt != '-' {
					break
				}
				b.WriteRune(l.advance()) // e
				if c := l.cur(); c == '+' || c == '-' {
					b.WriteRune(l.advance())
				}
				continue
			}
			b.WriteRune(l.advance())
			continue
		}
		break
	}
	return b.String()
}

func (l *refLexer) lexName() string {
	var b strings.Builder
	for l.pos < len(l.src) {
		r := l.cur()
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
			b.WriteRune(l.advance())
			continue
		}
		break
	}
	return b.String()
}

// lexPNameOrKeyword reads a word that may contain one ':' (prefixed name)
// and name characters including '-' and '.' (dot only when followed by a
// name character).
func (l *refLexer) lexPNameOrKeyword() string {
	var b strings.Builder
	for l.pos < len(l.src) {
		r := l.cur()
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == ':':
			b.WriteRune(l.advance())
		case r == '.':
			nxt := l.at(1)
			if unicode.IsLetter(nxt) || unicode.IsDigit(nxt) || nxt == '_' {
				b.WriteRune(l.advance())
			} else {
				return b.String()
			}
		default:
			return b.String()
		}
	}
	return b.String()
}

// lexSeeds are the inputs the lexer differential starts from: every query of
// the conformance corpus, the shapes of the standing benchmark's sparql-cold
// templates, and invalid UTF-8 inside and between tokens.
func lexSeeds(tb testing.TB) []string {
	paths, err := filepath.Glob("../conformance/testdata/*/*/query.rq")
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no corpus queries: %v", err)
	}
	var seeds []string
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, string(b))
	}
	const ex = "PREFIX ex: <http://example.org/products#> "
	for _, q := range []string{
		"SELECT ?m (AVG(?p) AS ?a) WHERE { ?l ex:manufacturer ?m ; ex:USBPorts ?u ; ex:price ?p . FILTER(?u >= 2) } GROUP BY ?m",
		"SELECT ?m ?o (SUM(?p) AS ?s) WHERE { ?l ex:manufacturer ?m ; ex:price ?p . ?m ex:origin ?o } GROUP BY ?m ?o HAVING (SUM(?p) > 1000000)",
		"SELECT ?l ?p ?d WHERE { ?l ex:manufacturer ex:Company3 ; ex:USBPorts 4 ; ex:price ?p ; ex:releaseDate ?d . FILTER(?p < 1500) } # s1 r0 i7",
		"SELECT ?l ?p WHERE { ?l a ex:Laptop ; ex:manufacturer ex:Company2 ; ex:price ?p } ORDER BY DESC(?p) ?l LIMIT 50",
		"SELECT ?l ?h ?hm WHERE { ?l ex:manufacturer ex:Company1 ; ex:price ?p . FILTER(?p > 1900) OPTIONAL { ?l ex:hardDrive ?h . ?h ex:manufacturer ?hm } }",
		"SELECT ?y (COUNT(?l) AS ?n) WHERE { ?l ex:manufacturer ex:Company4 ; ex:releaseDate ?d . BIND(YEAR(?d) AS ?y) } GROUP BY ?y",
		"SELECT DISTINCT ?cont ?c WHERE { ?l ex:USBPorts 3 ; ex:hardDrive ?h . ?h ex:manufacturer ?m . ?m ex:origin ?c . ?c ex:locatedAt ?cont }",
	} {
		seeds = append(seeds, ex+q, strings.ToLower(ex+q))
	}
	return append(seeds,
		"SELECT ?x WHERE { ?x <http://e/\xff\xfe> \"caf\xc3\xa9 \xe2\x80 \\n\xed\xa0\x80\" }",
		"SELECT * WHERE { ?s ?p 'a\xff\\tb' } # \xc0\n\xff",
		"?\xff", "<\xe2\x82>", "\"\xf0\x9f\x98\"", "\u00a0SELECT\u2003?x\u3000{}", "ex:a\xffb", "@en\xff", "1.5e+\xff",
		"SELECT (?p+1 AS ?q) (?p-1*2 AS ?r) (-.5e-3 AS ?z) WHERE { ?s ?x ?p } # ٣ ?٣x", "_:b1 $v ^^ ^ || | && & != ! >= <= < > . .5",
		"\"unterminated", "'bad \\q escape'", "\"trailing \\", "<http://e/ unterminated", "sélect", "",
	)
}

// sameLex fails unless lex and the reference lexer agree on src: the same
// tokens (kind, text, line, column) and the same error.
func sameLex(t *testing.T, src string) {
	t.Helper()
	got, err := lex(src)
	want, refErr := refLex(src)
	if fmt.Sprint(err) != fmt.Sprint(refErr) || !slices.Equal(got, want) {
		t.Fatalf("lex(%q):\n got %v, %v\nwant %v, %v", src, got, err, want, refErr)
	}
}

// TestLexMatchesReference holds lex to the rune lexer on the seeds and on
// seeded random edits of them: bytes cut out, and ASCII punctuation, multi-
// byte runes and invalid UTF-8 put in.
func TestLexMatchesReference(t *testing.T) {
	inserts := []string{"\xff", "\xe2\x80", "é", "٣", "\u00a0", "\n", "\\", "\"", "'", "<", ">", "?", "$", "@", ":", ".", "e", "+", "-", "^", "_", "#", "&", "|", "!", "="}
	rng := rand.New(rand.NewSource(1))
	for _, seed := range lexSeeds(t) {
		sameLex(t, seed)
		for i := 0; i < 40 && len(seed) > 0; i++ {
			at := rng.Intn(len(seed))
			src := seed[:at] + seed[at+rng.Intn(min(4, len(seed)-at)):]
			if rng.Intn(2) == 0 {
				src = seed[:at] + inserts[rng.Intn(len(inserts))] + seed[at:]
			}
			sameLex(t, src)
		}
	}
}

// FuzzLex is the same differential for arbitrary input.
func FuzzLex(f *testing.F) {
	for _, s := range lexSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(sameLex)
}
