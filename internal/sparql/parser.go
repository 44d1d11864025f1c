package sparql

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"rdfanalytics/internal/rdf"
)

// SyntaxError reports a parse error with position information.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sparql: line %d col %d: %s", e.Line, e.Col, e.Msg)
}

type parser struct {
	toks     []token
	pos      int
	prefixes map[string]string
	base     string
	genSeq   int
}

// Parse parses a SPARQL query string into a Query.
func Parse(src string) (*Query, error) {
	start := time.Now()
	defer func() {
		observeSince(phaseParse, start)
		queriesParsed.Inc()
	}()
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, prefixes: map[string]string{}}
	for k, v := range rdf.WellKnownPrefixes {
		p.prefixes[k] = v
	}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected %s after end of query", p.cur())
	}
	return q, nil
}

// MustParse parses a query and panics on error; for tests and constants.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return &SyntaxError{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.cur(); t.kind == tokKeyword && t.text == kw {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, got %s", kw, p.cur())
	}
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	if t := p.cur(); t.kind == tokPunct && t.text == s {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errf("expected %q, got %s", s, p.cur())
	}
	return nil
}

func (p *parser) peekPunct(s string) bool {
	t := p.cur()
	return t.kind == tokPunct && t.text == s
}

func (p *parser) peekKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tokKeyword && t.text == kw
}

func (p *parser) freshVar() string {
	p.genSeq++
	return fmt.Sprintf("_anon%d", p.genSeq)
}

// parsePrologue reads the PREFIX and BASE declarations that open a query or
// an update. Each declared IRI is resolved against the BASE in force where
// it appears, as the Turtle parser resolves its directives.
func (p *parser) parsePrologue() error {
	for {
		switch {
		case p.acceptKeyword("PREFIX"):
			t := p.cur()
			if t.kind != tokPName || !strings.HasSuffix(t.text, ":") {
				return p.errf("expected prefix label ending in ':', got %s", t)
			}
			label := strings.TrimSuffix(t.text, ":")
			p.advance()
			iri := p.cur()
			if iri.kind != tokIRI {
				return p.errf("expected IRI after PREFIX %s:", label)
			}
			p.advance()
			p.prefixes[label] = p.resolve(iri.text)
		case p.acceptKeyword("BASE"):
			iri := p.cur()
			if iri.kind != tokIRI {
				return p.errf("expected IRI after BASE")
			}
			p.advance()
			p.base = p.resolve(iri.text)
		default:
			return nil
		}
	}
}

// resolve resolves an IRI as written against the BASE in force.
func (p *parser) resolve(iri string) string {
	if p.base == "" {
		return iri
	}
	return rdf.ResolveIRI(p.base, iri)
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{Limit: -1}
	if err := p.parsePrologue(); err != nil {
		return nil, err
	}
	q.Prefixes = p.prefixes
	switch {
	case p.acceptKeyword("SELECT"):
		q.Form = FormSelect
		if err := p.parseSelectClause(q); err != nil {
			return nil, err
		}
	case p.acceptKeyword("ASK"):
		q.Form = FormAsk
	case p.acceptKeyword("CONSTRUCT"):
		q.Form = FormConstruct
		if err := p.expectPunct("{"); err != nil {
			return nil, err
		}
		for !p.peekPunct("}") {
			tps, err := p.parseTriplesSameSubject()
			if err != nil {
				return nil, err
			}
			q.Template = append(q.Template, tps...)
			if !p.acceptPunct(".") {
				break
			}
		}
		if err := p.expectPunct("}"); err != nil {
			return nil, err
		}
	case p.acceptKeyword("DESCRIBE"):
		q.Form = FormDescribe
		for {
			t := p.cur()
			if t.kind == tokVar {
				p.advance()
				q.Describe = append(q.Describe, Var(t.text))
				continue
			}
			if t.kind == tokIRI || t.kind == tokPName {
				term, err := p.parseIRITerm()
				if err != nil {
					return nil, err
				}
				q.Describe = append(q.Describe, TermNode(term))
				continue
			}
			break
		}
		if len(q.Describe) == 0 {
			return nil, p.errf("DESCRIBE needs at least one variable or IRI")
		}
	default:
		return nil, p.errf("expected SELECT, ASK, CONSTRUCT or DESCRIBE, got %s", p.cur())
	}
	// WHERE clause (the keyword is optional before '{'; DESCRIBE may omit
	// the whole clause).
	p.acceptKeyword("WHERE")
	if q.Form == FormDescribe && !p.peekPunct("{") {
		q.Where = &GroupPattern{}
		return q, nil
	}
	where, err := p.parseGroupPattern()
	if err != nil {
		return nil, err
	}
	q.Where = where
	// Solution modifiers.
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			gc, ok, err := p.parseGroupCond()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			q.GroupBy = append(q.GroupBy, gc)
		}
		if len(q.GroupBy) == 0 {
			return nil, p.errf("empty GROUP BY")
		}
	}
	if p.acceptKeyword("HAVING") {
		for {
			if !p.peekPunct("(") {
				break
			}
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			q.Having = append(q.Having, e)
		}
		if len(q.Having) == 0 {
			return nil, p.errf("HAVING requires a parenthesized condition")
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			oc, ok, err := p.parseOrderCond()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			q.OrderBy = append(q.OrderBy, oc)
		}
		if len(q.OrderBy) == 0 {
			return nil, p.errf("empty ORDER BY")
		}
	}
	for {
		switch {
		case p.acceptKeyword("LIMIT"):
			n, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			q.Limit = n
		case p.acceptKeyword("OFFSET"):
			n, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			q.Offset = n
		default:
			return q, nil
		}
	}
}

func (p *parser) parseInt() (int, error) {
	t := p.cur()
	if t.kind != tokNumber {
		return 0, p.errf("expected integer, got %s", t)
	}
	p.advance()
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, p.errf("bad integer %q", t.text)
	}
	return n, nil
}

func (p *parser) parseSelectClause(q *Query) error {
	if p.acceptKeyword("DISTINCT") {
		q.Select.Distinct = true
	} else {
		p.acceptKeyword("REDUCED")
	}
	if p.acceptPunct("*") {
		q.Select.Star = true
		return nil
	}
	for {
		t := p.cur()
		switch {
		case t.kind == tokVar:
			p.advance()
			q.Select.Items = append(q.Select.Items, SelectItem{Var: t.text})
		case t.kind == tokPunct && t.text == "(":
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			name := ""
			if p.acceptKeyword("AS") {
				v := p.cur()
				if v.kind != tokVar {
					return p.errf("expected variable after AS")
				}
				p.advance()
				name = v.text
			}
			if err := p.expectPunct(")"); err != nil {
				return err
			}
			if name == "" {
				name = p.freshVar()
			}
			q.Select.Items = append(q.Select.Items, SelectItem{Var: name, Expr: e})
		case t.kind == tokKeyword && (aggregateNames[t.text] || builtinNames[t.text]):
			// Bare aggregate/builtin without parentheses around the whole
			// item, e.g. "SELECT ?x SUM(?y)" as the paper writes it.
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			name := ""
			if p.acceptKeyword("AS") {
				v := p.cur()
				if v.kind != tokVar {
					return p.errf("expected variable after AS")
				}
				p.advance()
				name = v.text
			}
			if name == "" {
				name = p.autoName(e)
			}
			q.Select.Items = append(q.Select.Items, SelectItem{Var: name, Expr: e})
		default:
			if len(q.Select.Items) == 0 {
				return p.errf("expected projection, got %s", t)
			}
			return nil
		}
	}
}

// autoName generates a readable output column for a bare expression, e.g.
// SUM(?x3) -> "sum_x3".
func (p *parser) autoName(e Expr) string {
	if agg, ok := e.(ExprAggregate); ok {
		base := strings.ToLower(agg.Func)
		if v, ok := agg.Arg.(ExprVar); ok {
			return base + "_" + v.Name
		}
		if agg.Star {
			return base
		}
		return base + strconv.Itoa(p.pos)
	}
	if call, ok := e.(ExprCall); ok {
		base := strings.ToLower(call.Func)
		if i := strings.LastIndexAny(base, "#/"); i >= 0 {
			base = base[i+1:]
		}
		if len(call.Args) == 1 {
			if v, ok := call.Args[0].(ExprVar); ok {
				return base + "_" + v.Name
			}
		}
		return base + strconv.Itoa(p.pos)
	}
	return p.freshVar()
}

func (p *parser) parseGroupCond() (GroupCond, bool, error) {
	t := p.cur()
	switch {
	case t.kind == tokVar:
		p.advance()
		return GroupCond{Var: t.text}, true, nil
	case t.kind == tokPunct && t.text == "(":
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return GroupCond{}, false, err
		}
		name := ""
		if p.acceptKeyword("AS") {
			v := p.cur()
			if v.kind != tokVar {
				return GroupCond{}, false, p.errf("expected variable after AS")
			}
			p.advance()
			name = v.text
		}
		if err := p.expectPunct(")"); err != nil {
			return GroupCond{}, false, err
		}
		return GroupCond{Var: name, Expr: e}, true, nil
	case t.kind == tokKeyword && builtinNames[t.text]:
		// GROUP BY month(?x) — builtin call condition.
		e, err := p.parseExpr()
		if err != nil {
			return GroupCond{}, false, err
		}
		return GroupCond{Expr: e}, true, nil
	default:
		return GroupCond{}, false, nil
	}
}

func (p *parser) parseOrderCond() (OrderCond, bool, error) {
	switch {
	case p.acceptKeyword("ASC"):
		e, err := p.parseBracketted()
		return OrderCond{Expr: e}, true, err
	case p.acceptKeyword("DESC"):
		e, err := p.parseBracketted()
		return OrderCond{Desc: true, Expr: e}, true, err
	case p.cur().kind == tokVar:
		v := p.advance()
		return OrderCond{Expr: ExprVar{Name: v.text}}, true, nil
	case p.peekPunct("("):
		e, err := p.parseBracketted()
		return OrderCond{Expr: e}, true, err
	case p.cur().kind == tokKeyword && (builtinNames[p.cur().text] || aggregateNames[p.cur().text]):
		e, err := p.parseExpr()
		return OrderCond{Expr: e}, true, err
	default:
		return OrderCond{}, false, nil
	}
}

func (p *parser) parseBracketted() (Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return e, p.expectPunct(")")
}

// parseGroupPattern parses { elem* }.
func (p *parser) parseGroupPattern() (*GroupPattern, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	gp := &GroupPattern{}
	for {
		if p.acceptPunct("}") {
			return gp, nil
		}
		// The grammar allows a free '.' after non-triple elements.
		if p.acceptPunct(".") {
			continue
		}
		t := p.cur()
		switch {
		case t.kind == tokKeyword && t.text == "FILTER":
			p.advance()
			var e Expr
			var err error
			// FILTER EXISTS / NOT EXISTS may omit parentheses.
			if p.peekKeyword("EXISTS") || p.peekKeyword("NOT") {
				e, err = p.parseExistsExpr()
			} else if p.peekPunct("(") {
				e, err = p.parseBracketted()
			} else if p.cur().kind == tokKeyword && builtinNames[p.cur().text] {
				e, err = p.parseExpr()
			} else {
				return nil, p.errf("expected condition after FILTER")
			}
			if err != nil {
				return nil, err
			}
			gp.Elems = append(gp.Elems, PatternElem{Filter: e})
		case t.kind == tokKeyword && t.text == "OPTIONAL":
			p.advance()
			sub, err := p.parseGroupPattern()
			if err != nil {
				return nil, err
			}
			gp.Elems = append(gp.Elems, PatternElem{Optional: sub})
		case t.kind == tokKeyword && t.text == "MINUS":
			p.advance()
			sub, err := p.parseGroupPattern()
			if err != nil {
				return nil, err
			}
			gp.Elems = append(gp.Elems, PatternElem{Minus: sub})
		case t.kind == tokKeyword && t.text == "BIND":
			p.advance()
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AS"); err != nil {
				return nil, err
			}
			v := p.cur()
			if v.kind != tokVar {
				return nil, p.errf("expected variable after AS")
			}
			p.advance()
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			gp.Elems = append(gp.Elems, PatternElem{Bind: &BindElem{Expr: e, Var: v.text}})
		case t.kind == tokKeyword && t.text == "VALUES":
			p.advance()
			ve, err := p.parseValues()
			if err != nil {
				return nil, err
			}
			gp.Elems = append(gp.Elems, PatternElem{Values: ve})
		case t.kind == tokPunct && t.text == "{":
			// Nested group, subquery, or UNION chain.
			elem, err := p.parseGroupOrSubqueryOrUnion()
			if err != nil {
				return nil, err
			}
			gp.Elems = append(gp.Elems, elem)
		default:
			tps, err := p.parseTriplesSameSubject()
			if err != nil {
				return nil, err
			}
			for i := range tps {
				tp := tps[i]
				gp.Elems = append(gp.Elems, PatternElem{Triple: &tp})
			}
			p.acceptPunct(".")
		}
	}
}

func (p *parser) parseGroupOrSubqueryOrUnion() (PatternElem, error) {
	// Peek inside the '{': a SELECT keyword means subquery.
	if p.toks[p.pos+1].kind == tokKeyword && p.toks[p.pos+1].text == "SELECT" {
		p.advance() // '{'
		sub, err := p.parseSubSelect()
		if err != nil {
			return PatternElem{}, err
		}
		if err := p.expectPunct("}"); err != nil {
			return PatternElem{}, err
		}
		return PatternElem{SubQuery: sub}, nil
	}
	first, err := p.parseGroupPattern()
	if err != nil {
		return PatternElem{}, err
	}
	if !p.peekKeyword("UNION") {
		return PatternElem{Group: first}, nil
	}
	union := &UnionPattern{Alternatives: []*GroupPattern{first}}
	for p.acceptKeyword("UNION") {
		alt, err := p.parseGroupPattern()
		if err != nil {
			return PatternElem{}, err
		}
		union.Alternatives = append(union.Alternatives, alt)
	}
	return PatternElem{Union: union}, nil
}

// parseSubSelect parses a SELECT query used as a subquery (no prologue).
func (p *parser) parseSubSelect() (*Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q := &Query{Form: FormSelect, Limit: -1, Prefixes: p.prefixes}
	if err := p.parseSelectClause(q); err != nil {
		return nil, err
	}
	p.acceptKeyword("WHERE")
	where, err := p.parseGroupPattern()
	if err != nil {
		return nil, err
	}
	q.Where = where
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			gc, ok, err := p.parseGroupCond()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			q.GroupBy = append(q.GroupBy, gc)
		}
	}
	if p.acceptKeyword("HAVING") {
		for p.peekPunct("(") {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			q.Having = append(q.Having, e)
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			oc, ok, err := p.parseOrderCond()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			q.OrderBy = append(q.OrderBy, oc)
		}
	}
	for {
		switch {
		case p.acceptKeyword("LIMIT"):
			n, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			q.Limit = n
		case p.acceptKeyword("OFFSET"):
			n, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			q.Offset = n
		default:
			return q, nil
		}
	}
}

func (p *parser) parseValues() (*ValuesElem, error) {
	ve := &ValuesElem{}
	multi := false
	if p.acceptPunct("(") {
		multi = true
		for p.cur().kind == tokVar {
			ve.Vars = append(ve.Vars, p.advance().text)
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	} else {
		v := p.cur()
		if v.kind != tokVar {
			return nil, p.errf("expected variable after VALUES")
		}
		p.advance()
		ve.Vars = []string{v.text}
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for !p.acceptPunct("}") {
		if multi {
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			row := make([]rdf.Term, 0, len(ve.Vars))
			for !p.acceptPunct(")") {
				if p.acceptKeyword("UNDEF") {
					row = append(row, rdf.Term{})
					continue
				}
				t, err := p.parseTermToken()
				if err != nil {
					return nil, err
				}
				row = append(row, t)
			}
			if len(row) != len(ve.Vars) {
				return nil, p.errf("VALUES row has %d terms, want %d", len(row), len(ve.Vars))
			}
			ve.Rows = append(ve.Rows, row)
		} else {
			if p.acceptKeyword("UNDEF") {
				ve.Rows = append(ve.Rows, []rdf.Term{{}})
				continue
			}
			t, err := p.parseTermToken()
			if err != nil {
				return nil, err
			}
			ve.Rows = append(ve.Rows, []rdf.Term{t})
		}
	}
	return ve, nil
}

// parseTermToken parses a concrete RDF term (no variables), as allowed in
// VALUES data blocks.
func (p *parser) parseTermToken() (rdf.Term, error) {
	n, err := p.parseNode()
	if err != nil {
		return rdf.Term{}, err
	}
	if n.IsVar() {
		return rdf.Term{}, p.errf("variable not allowed here")
	}
	return n.Term, nil
}

// parseTriplesSameSubject parses "subject predicateObjectList" and returns
// the expanded triple patterns.
func (p *parser) parseTriplesSameSubject() ([]TriplePattern, error) {
	subj, err := p.parseNode()
	if err != nil {
		return nil, err
	}
	var out []TriplePattern
	for {
		pred, path, err := p.parseVerb()
		if err != nil {
			return nil, err
		}
		for {
			obj, err := p.parseNode()
			if err != nil {
				return nil, err
			}
			out = append(out, TriplePattern{S: subj, P: pred, Path: path, O: obj})
			if !p.acceptPunct(",") {
				break
			}
		}
		if !p.acceptPunct(";") {
			return out, nil
		}
		// allow trailing ';'
		if p.peekPunct(".") || p.peekPunct("}") {
			return out, nil
		}
	}
}

// parseVerb parses a predicate: 'a', a variable, an IRI/pname, or a property
// path. Returns either a Node (simple predicate) or a Path.
func (p *parser) parseVerb() (Node, Path, error) {
	t := p.cur()
	if t.kind == tokA {
		p.advance()
		return TermNode(rdf.NewIRI(rdf.RDFType)), nil, nil
	}
	if t.kind == tokVar {
		p.advance()
		return Var(t.text), nil, nil
	}
	path, err := p.parsePathAlt()
	if err != nil {
		return Node{}, nil, err
	}
	// Collapse trivial paths to plain predicates.
	if atom, ok := path.(PathIRI); ok {
		return TermNode(atom.IRI), nil, nil
	}
	return Node{}, path, nil
}

func (p *parser) parsePathAlt() (Path, error) {
	left, err := p.parsePathSeq()
	if err != nil {
		return nil, err
	}
	for p.acceptPunct("|") {
		right, err := p.parsePathSeq()
		if err != nil {
			return nil, err
		}
		left = PathAlt{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parsePathSeq() (Path, error) {
	left, err := p.parsePathElt()
	if err != nil {
		return nil, err
	}
	for p.acceptPunct("/") {
		right, err := p.parsePathElt()
		if err != nil {
			return nil, err
		}
		left = PathSeq{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parsePathElt() (Path, error) {
	inverse := p.acceptPunct("^")
	var base Path
	switch {
	case p.peekPunct("("):
		p.advance()
		inner, err := p.parsePathAlt()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		base = inner
	default:
		iri, err := p.parseIRITerm()
		if err != nil {
			return nil, err
		}
		base = PathIRI{IRI: iri}
	}
	if inverse {
		base = PathInverse{Sub: base}
	}
	switch {
	case p.acceptPunct("*"):
		return PathMod{Sub: base, Min: 0, Max: -1}, nil
	case p.acceptPunct("+"):
		return PathMod{Sub: base, Min: 1, Max: -1}, nil
	case p.acceptPunct("?"):
		return PathMod{Sub: base, Min: 0, Max: 1}, nil
	}
	return base, nil
}

func (p *parser) parseIRITerm() (rdf.Term, error) {
	t := p.cur()
	switch t.kind {
	case tokIRI:
		p.advance()
		return rdf.NewIRI(p.resolve(t.text)), nil
	case tokPName:
		p.advance()
		return p.expandPName(t)
	case tokA:
		p.advance()
		return rdf.NewIRI(rdf.RDFType), nil
	default:
		return rdf.Term{}, p.errf("expected IRI, got %s", t)
	}
}

func (p *parser) expandPName(t token) (rdf.Term, error) {
	if strings.HasPrefix(t.text, "_:") {
		return rdf.NewBlank(t.text[2:]), nil
	}
	i := strings.IndexByte(t.text, ':')
	if i < 0 {
		return rdf.Term{}, &SyntaxError{Line: t.line, Col: t.col, Msg: "expected prefixed name"}
	}
	ns, ok := p.prefixes[t.text[:i]]
	if !ok {
		return rdf.Term{}, &SyntaxError{Line: t.line, Col: t.col,
			Msg: fmt.Sprintf("undefined prefix %q", t.text[:i])}
	}
	return rdf.NewIRI(ns + t.text[i+1:]), nil
}

// parseNode parses a subject/object: variable, IRI, pname, blank, or literal.
func (p *parser) parseNode() (Node, error) {
	t := p.cur()
	switch t.kind {
	case tokVar:
		p.advance()
		return Var(t.text), nil
	case tokIRI, tokPName, tokA:
		term, err := p.parseIRITerm()
		if err != nil {
			// maybe blank node pname
			if strings.HasPrefix(t.text, "_:") {
				p.advance()
				return TermNode(rdf.NewBlank(t.text[2:])), nil
			}
			return Node{}, err
		}
		return TermNode(term), nil
	case tokLiteral:
		term, err := p.parseLiteralTerm()
		if err != nil {
			return Node{}, err
		}
		return TermNode(term), nil
	case tokNumber:
		p.advance()
		return TermNode(numberTerm(t.text)), nil
	case tokKeyword:
		switch t.text {
		case "TRUE":
			p.advance()
			return TermNode(rdf.NewBool(true)), nil
		case "FALSE":
			p.advance()
			return TermNode(rdf.NewBool(false)), nil
		}
	}
	return Node{}, p.errf("expected term or variable, got %s", t)
}

func (p *parser) parseLiteralTerm() (rdf.Term, error) {
	t := p.advance() // tokLiteral
	switch p.cur().kind {
	case tokLangTag:
		lang := p.advance()
		return rdf.NewLangString(t.text, lang.text), nil
	case tokDTSep:
		p.advance()
		dt, err := p.parseIRITerm()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewTyped(t.text, dt.Value), nil
	default:
		return rdf.NewString(t.text), nil
	}
}

func numberTerm(lex string) rdf.Term {
	if strings.ContainsAny(lex, "eE") {
		return rdf.NewTyped(lex, rdf.XSDDouble)
	}
	if strings.Contains(lex, ".") {
		return rdf.NewTyped(lex, rdf.XSDDecimal)
	}
	return rdf.NewTyped(lex, rdf.XSDInteger)
}
