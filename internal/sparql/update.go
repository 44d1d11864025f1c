package sparql

import (
	"context"
	"fmt"

	"rdfanalytics/internal/rdf"
)

// SPARQL 1.1 Update subset: INSERT DATA, DELETE DATA, DELETE WHERE, and the
// full DELETE/INSERT ... WHERE form, plus CLEAR ALL. This is what a
// writable endpoint needs so clients can load answer-datasets or maintain
// graphs remotely.

// UpdateKind discriminates update operations.
type UpdateKind int

// The supported update operations.
const (
	// UpdateInsertData is INSERT DATA { triples }.
	UpdateInsertData UpdateKind = iota
	// UpdateDeleteData is DELETE DATA { triples }.
	UpdateDeleteData
	// UpdateDeleteWhere is DELETE WHERE { patterns }.
	UpdateDeleteWhere
	// UpdateModify is [DELETE {tmpl}] [INSERT {tmpl}] WHERE { patterns }.
	UpdateModify
	// UpdateClear is CLEAR ALL.
	UpdateClear
)

// Update is one parsed update operation.
type Update struct {
	Kind        UpdateKind
	InsertTempl []TriplePattern
	DeleteTempl []TriplePattern
	Where       *GroupPattern
	Prefixes    map[string]string
}

// ParseUpdate parses a single SPARQL update operation.
func ParseUpdate(src string) (*Update, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, prefixes: map[string]string{}}
	for k, v := range rdf.WellKnownPrefixes {
		p.prefixes[k] = v
	}
	u, err := p.parseUpdate()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected %s after update", p.cur())
	}
	return u, nil
}

func (p *parser) parseUpdate() (*Update, error) {
	// Prologue.
	for {
		if p.acceptKeyword("PREFIX") {
			t := p.cur()
			if t.kind != tokPName || t.text[len(t.text)-1] != ':' {
				return nil, p.errf("expected prefix label, got %s", t)
			}
			label := t.text[:len(t.text)-1]
			p.advance()
			iri := p.cur()
			if iri.kind != tokIRI {
				return nil, p.errf("expected IRI after PREFIX")
			}
			p.advance()
			p.prefixes[label] = iri.text
			continue
		}
		break
	}
	u := &Update{Prefixes: p.prefixes}
	switch {
	case p.acceptUpdateWord("INSERT"):
		if p.acceptUpdateWord("DATA") {
			u.Kind = UpdateInsertData
			tmpl, err := p.parseQuadBlock()
			if err != nil {
				return nil, err
			}
			u.InsertTempl = tmpl
			return u, nil
		}
		// INSERT {tmpl} WHERE {...}
		u.Kind = UpdateModify
		tmpl, err := p.parseQuadBlock()
		if err != nil {
			return nil, err
		}
		u.InsertTempl = tmpl
		if err := p.expectKeyword("WHERE"); err != nil {
			return nil, err
		}
		u.Where, err = p.parseGroupPattern()
		return u, err
	case p.acceptUpdateWord("DELETE"):
		if p.acceptUpdateWord("DATA") {
			u.Kind = UpdateDeleteData
			tmpl, err := p.parseQuadBlock()
			if err != nil {
				return nil, err
			}
			u.DeleteTempl = tmpl
			return u, nil
		}
		if p.acceptKeyword("WHERE") {
			u.Kind = UpdateDeleteWhere
			var err error
			u.Where, err = p.parseGroupPattern()
			return u, err
		}
		// DELETE {tmpl} [INSERT {tmpl}] WHERE {...}
		u.Kind = UpdateModify
		tmpl, err := p.parseQuadBlock()
		if err != nil {
			return nil, err
		}
		u.DeleteTempl = tmpl
		if p.acceptUpdateWord("INSERT") {
			ins, err := p.parseQuadBlock()
			if err != nil {
				return nil, err
			}
			u.InsertTempl = ins
		}
		if err := p.expectKeyword("WHERE"); err != nil {
			return nil, err
		}
		u.Where, err = p.parseGroupPattern()
		return u, err
	case p.acceptUpdateWord("CLEAR"):
		u.Kind = UpdateClear
		p.acceptUpdateWord("ALL")
		return u, nil
	default:
		return nil, p.errf("expected INSERT, DELETE or CLEAR, got %s", p.cur())
	}
}

// acceptUpdateWord matches update keywords that the query lexer may not
// reserve (INSERT, DELETE, DATA, CLEAR, ALL reach us as PNames-without-colon
// would error, so the lexer needs them recognized; they are matched here by
// keyword or bare identifier text).
func (p *parser) acceptUpdateWord(word string) bool {
	t := p.cur()
	if t.kind == tokKeyword && t.text == word {
		p.advance()
		return true
	}
	return false
}

func (p *parser) parseQuadBlock() ([]TriplePattern, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var out []TriplePattern
	for !p.acceptPunct("}") {
		tps, err := p.parseTriplesSameSubject()
		if err != nil {
			return nil, err
		}
		out = append(out, tps...)
		p.acceptPunct(".")
	}
	return out, nil
}

// UpdateResult reports what an update changed.
type UpdateResult struct {
	Inserted int
	Deleted  int
}

// ExecUpdate parses and applies an update to g.
func ExecUpdate(g *rdf.Graph, src string) (UpdateResult, error) {
	return ExecUpdateCtx(context.Background(), g, src)
}

// ExecUpdateCtx is ExecUpdate honoring ctx: the WHERE evaluation of
// DELETE WHERE and DELETE/INSERT...WHERE is cancellable. An aborted
// evaluation applies no changes.
func ExecUpdateCtx(ctx context.Context, g *rdf.Graph, src string) (UpdateResult, error) {
	u, err := ParseUpdate(src)
	if err != nil {
		return UpdateResult{}, err
	}
	return ApplyUpdateCtx(ctx, g, u)
}

// ApplyUpdateCtx applies a parsed update to g, honoring ctx during the
// WHERE-pattern evaluation. If the evaluation is cancelled or exceeds a
// budget, the update is abandoned before any triple is touched.
func ApplyUpdateCtx(ctx context.Context, g *rdf.Graph, u *Update) (UpdateResult, error) {
	var res UpdateResult
	ground := func(tmpl []TriplePattern) ([]rdf.Triple, error) {
		out := make([]rdf.Triple, 0, len(tmpl))
		for _, tp := range tmpl {
			if tp.S.IsVar() || tp.P.IsVar() || tp.O.IsVar() || tp.Path != nil {
				return nil, fmt.Errorf("sparql: DATA block must be ground (no variables)")
			}
			out = append(out, rdf.Triple{S: tp.S.Term, P: tp.P.Term, O: tp.O.Term})
		}
		return out, nil
	}
	switch u.Kind {
	case UpdateInsertData:
		ts, err := ground(u.InsertTempl)
		if err != nil {
			return res, err
		}
		for _, t := range ts {
			if g.Add(t) {
				res.Inserted++
			}
		}
		return res, nil
	case UpdateDeleteData:
		ts, err := ground(u.DeleteTempl)
		if err != nil {
			return res, err
		}
		for _, t := range ts {
			if g.Remove(t) {
				res.Deleted++
			}
		}
		return res, nil
	case UpdateDeleteWhere:
		// The WHERE patterns serve as both pattern and delete template.
		var tmpl []TriplePattern
		for _, e := range u.Where.Elems {
			if e.Triple == nil {
				return res, fmt.Errorf("sparql: DELETE WHERE supports only triple patterns")
			}
			tmpl = append(tmpl, *e.Triple)
		}
		return res, deleteInsert(ctx, g, u.Where, tmpl, nil, &res)
	case UpdateModify:
		return res, deleteInsert(ctx, g, u.Where, u.DeleteTempl, u.InsertTempl, &res)
	case UpdateClear:
		for _, t := range g.Triples() {
			g.Remove(t)
			res.Deleted++
		}
		return res, nil
	default:
		return res, fmt.Errorf("sparql: unknown update kind %d", u.Kind)
	}
}

// deleteInsert evaluates the WHERE pattern, then instantiates the delete
// template for every solution (removing matches) and the insert template
// (adding instantiations). Both are instantiated before anything is applied,
// so a solution's own deletions cannot hide later matches, and an aborted
// evaluation touches nothing.
func deleteInsert(ctx context.Context, g *rdf.Graph, where *GroupPattern, del, ins []TriplePattern, res *UpdateResult) error {
	ev := newEvaluator(ctx, g, Options{})
	rows, err := ev.evalWhere(where)
	if err != nil {
		observeAbort(nil, err)
		return err
	}
	toDelete, toInsert := ev.instantiate(del, rows), ev.instantiate(ins, rows)
	for _, t := range toDelete {
		if g.Remove(t) {
			res.Deleted++
		}
	}
	for _, t := range toInsert {
		if g.Add(t) {
			res.Inserted++
		}
	}
	return nil
}
