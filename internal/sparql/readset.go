package sparql

import "rdfanalytics/internal/rdf"

// ReadSet returns what q can read of a graph: the constant predicates of
// every triple pattern anywhere in it — OPTIONAL, UNION, MINUS, nested
// groups, sub-selects, and EXISTS in FILTER, BIND, projections, GROUP BY,
// HAVING and ORDER BY. It reads all predicates when a pattern has a variable
// predicate or a property path, and a DESCRIBE always does. A CONSTRUCT
// template writes its output and reads nothing. A graph change to no
// predicate of the set leaves q's answer as it was (rdf.Graph.ReadVersion).
func ReadSet(q *Query) rdf.ReadSet {
	var r readSet
	if r.query(q); r.All {
		return rdf.ReadSet{All: true}
	}
	return r.ReadSet
}

type readSet struct{ rdf.ReadSet }

func (r *readSet) query(q *Query) {
	if q.Form == FormDescribe {
		r.All = true
		return
	}
	r.group(q.Where)
	for _, it := range q.Select.Items {
		r.expr(it.Expr)
	}
	for _, gc := range q.GroupBy {
		r.expr(gc.Expr)
	}
	for _, h := range q.Having {
		r.expr(h)
	}
	for _, oc := range q.OrderBy {
		r.expr(oc.Expr)
	}
}

func (r *readSet) group(gp *GroupPattern) {
	if gp == nil {
		return
	}
	for _, e := range gp.Elems {
		if r.All {
			return
		}
		switch {
		case e.Triple != nil:
			r.triple(e.Triple)
		case e.Filter != nil:
			r.expr(e.Filter)
		case e.Optional != nil:
			r.group(e.Optional)
		case e.Union != nil:
			for _, alt := range e.Union.Alternatives {
				r.group(alt)
			}
		case e.Group != nil:
			r.group(e.Group)
		case e.Bind != nil:
			r.expr(e.Bind.Expr)
		case e.SubQuery != nil:
			r.query(e.SubQuery)
		case e.Minus != nil:
			r.group(e.Minus)
		}
	}
}

func (r *readSet) triple(tp *TriplePattern) {
	if tp.Path != nil || tp.P.IsVar() {
		r.All = true
		return
	}
	for _, p := range r.Preds {
		if p == tp.P.Term {
			return
		}
	}
	r.Preds = append(r.Preds, tp.P.Term)
}

// expr adds the patterns of the EXISTS inside e.
func (r *readSet) expr(e Expr) {
	walkExpr(e, func(x Expr) bool {
		if ex, ok := x.(ExprExists); ok {
			r.group(ex.Pattern)
		}
		return !r.All
	})
}
