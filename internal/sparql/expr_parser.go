package sparql

import (
	"strings"

	"rdfanalytics/internal/rdf"
)

// Expression grammar (precedence climbing):
//
//	expr        := orExpr
//	orExpr      := andExpr ( "||" andExpr )*
//	andExpr     := relExpr ( "&&" relExpr )*
//	relExpr     := addExpr ( ("="|"!="|"<"|"<="|">"|">=") addExpr | [NOT] IN "(" list ")" )?
//	addExpr     := mulExpr ( ("+"|"-") mulExpr )*
//	mulExpr     := unaryExpr ( ("*"|"/") unaryExpr )*
//	unaryExpr   := ("!"|"-"|"+")? primary
//	primary     := "(" expr ")" | builtinCall | aggregate | EXISTS | var | literal | IRI
func (p *parser) parseExpr() (Expr, error) {
	return p.parseOr()
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptPunct("||") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = ExprBinary{Op: "||", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for p.acceptPunct("&&") {
		right, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		left = ExprBinary{Op: "&&", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseRelational() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"=", "!=", "<=", ">=", "<", ">"} {
		if p.peekPunct(op) {
			p.advance()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return ExprBinary{Op: op, Left: left, Right: right}, nil
		}
	}
	// [NOT] IN (...)
	not := false
	if p.peekKeyword("NOT") && p.toks[p.pos+1].kind == tokKeyword && p.toks[p.pos+1].text == "IN" {
		p.advance()
		not = true
	}
	if p.acceptKeyword("IN") {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var list []Expr
		for !p.acceptPunct(")") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			p.acceptPunct(",")
		}
		return ExprIn{Not: not, Left: left, List: list}, nil
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	for err == nil {
		t := p.cur()
		op := t.text
		switch {
		case t.kind == tokPunct && (op == "+" || op == "-"):
			p.advance()
		case t.kind == tokNumber && (op[0] == '+' || op[0] == '-'):
			// A signed number right after an operand is the operator and an
			// unsigned number, which a following * or / binds to (SPARQL 1.1
			// grammar rule [116]): ?a-1/2 is ?a - (1/2).
			op, p.toks[p.pos].text = op[:1], op[1:]
		default:
			return left, nil
		}
		var right Expr
		if right, err = p.parseMultiplicative(); err == nil {
			left = ExprBinary{Op: op, Left: left, Right: right}
		}
	}
	return nil, err
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptPunct("*"):
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = ExprBinary{Op: "*", Left: left, Right: right}
		case p.acceptPunct("/"):
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = ExprBinary{Op: "/", Left: left, Right: right}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	switch {
	case p.acceptPunct("!"):
		sub, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return ExprUnary{Op: "!", Sub: sub}, nil
	case p.acceptPunct("-"):
		sub, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return ExprUnary{Op: "-", Sub: sub}, nil
	case p.acceptPunct("+"):
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokPunct:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return e, p.expectPunct(")")
		}
	case tokVar:
		p.advance()
		return ExprVar{Name: t.text}, nil
	case tokNumber:
		p.advance()
		return ExprTerm{Term: numberTerm(t.text)}, nil
	case tokLiteral:
		term, err := p.parseLiteralTerm()
		if err != nil {
			return nil, err
		}
		return ExprTerm{Term: term}, nil
	case tokIRI:
		// Either a constant IRI or a cast call: <datatype>(expr).
		p.advance()
		iri := t.text
		if p.peekPunct("(") {
			p.advance()
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return ExprCall{Func: iri, Args: []Expr{arg}}, nil
		}
		return ExprTerm{Term: rdf.NewIRI(iri)}, nil
	case tokPName:
		term, err := p.parseIRITerm()
		if err != nil {
			return nil, err
		}
		if p.peekPunct("(") {
			// Cast via prefixed datatype, e.g. xsd:integer("2").
			p.advance()
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return ExprCall{Func: term.Value, Args: []Expr{arg}}, nil
		}
		return ExprTerm{Term: term}, nil
	case tokKeyword:
		switch {
		case t.text == "TRUE":
			p.advance()
			return ExprTerm{Term: rdf.NewBool(true)}, nil
		case t.text == "FALSE":
			p.advance()
			return ExprTerm{Term: rdf.NewBool(false)}, nil
		case t.text == "EXISTS" || t.text == "NOT":
			return p.parseExistsExpr()
		case aggregateNames[t.text]:
			return p.parseAggregate()
		case builtinNames[t.text]:
			return p.parseBuiltinCall()
		}
	}
	return nil, p.errf("expected expression, got %s", t)
}

func (p *parser) parseExistsExpr() (Expr, error) {
	not := false
	if p.acceptKeyword("NOT") {
		not = true
	}
	if err := p.expectKeyword("EXISTS"); err != nil {
		return nil, err
	}
	gp, err := p.parseGroupPattern()
	if err != nil {
		return nil, err
	}
	return ExprExists{Not: not, Pattern: gp}, nil
}

func (p *parser) parseAggregate() (Expr, error) {
	name := p.advance().text
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	agg := ExprAggregate{Func: name, Separator: " "}
	if p.acceptKeyword("DISTINCT") {
		agg.Distinct = true
	}
	if p.acceptPunct("*") {
		agg.Star = true
	} else {
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		agg.Arg = arg
	}
	if p.acceptPunct(";") {
		if err := p.expectKeyword("SEPARATOR"); err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		sep := p.cur()
		if sep.kind != tokLiteral {
			return nil, p.errf("expected string after SEPARATOR=")
		}
		p.advance()
		agg.Separator = sep.text
	}
	return agg, p.expectPunct(")")
}

func (p *parser) parseBuiltinCall() (Expr, error) {
	name := strings.ToUpper(p.advance().text)
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	call := ExprCall{Func: name}
	if !p.peekPunct(")") {
		for {
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, arg)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	return call, p.expectPunct(")")
}
