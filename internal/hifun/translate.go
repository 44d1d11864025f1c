package hifun

import (
	"fmt"
	"strings"

	"rdfanalytics/internal/rdf"
)

// Translator turns HIFUN queries into SPARQL per Algorithms 1–4 of §4.2:
// the grouping expression yields triple patterns plus GROUP BY variables,
// the measuring expression yields triple patterns plus the aggregated
// variable, restrictions become triple patterns (URI values) or FILTERs
// (literal values), and result restrictions become HAVING clauses.
type Translator struct {
	// NS resolves bare attribute names: name -> NS+name.
	NS string
	// Resolve, when set, overrides NS-based resolution of attribute names.
	Resolve func(name string) rdf.Term
	// RootClass, when set, constrains the context root: ?x1 rdf:type <c>.
	RootClass rdf.Term
	// ExtraPatterns are verbatim graph patterns appended to WHERE, rooted at
	// ?x1 — the hook through which the faceted-search layer injects the
	// current state's extension (Table 5.1's temp-class trick).
	ExtraPatterns []string
}

// translation accumulates the pieces of Algorithm 1/4 while walking the
// query: triplePatterns, filters, retVars, aggregate selects and HAVINGs.
type translation struct {
	tr       *Translator
	varSeq   int
	patterns []string
	filters  []string
	retVars  []string // SELECT + GROUP BY variables (or derived expressions)
	groupBy  []string
	selects  []string // aggregate select items
	havings  []string
}

// RootVar is the SPARQL variable bound to the data items of the analysis
// context (the paper's ?x1).
const RootVar = "?x1"

func (t *translation) newVar() string {
	t.varSeq++
	return fmt.Sprintf("?x%d", t.varSeq+1) // ?x2, ?x3, ...
}

func (tr *Translator) resolve(name string) rdf.Term {
	if strings.Contains(name, "://") || strings.HasPrefix(name, "urn:") {
		return rdf.NewIRI(name)
	}
	if tr.Resolve != nil {
		return tr.Resolve(name)
	}
	return rdf.NewIRI(tr.NS + name)
}

// Translate produces the complete SPARQL SELECT query for q.
func (tr *Translator) Translate(q *Query) (string, error) {
	t := &translation{tr: tr}
	if len(q.Ops) == 0 {
		return "", fmt.Errorf("hifun: query has no operation")
	}
	if tr.RootClass != (rdf.Term{}) {
		t.patterns = append(t.patterns,
			fmt.Sprintf("%s <%s> <%s> .", RootVar, rdf.RDFType, tr.RootClass.Value))
	}
	t.patterns = append(t.patterns, tr.ExtraPatterns...)
	// Grouping expression gE (may be ε).
	if q.Grouping != nil {
		if err := t.addGrouping(q.Grouping); err != nil {
			return "", err
		}
	}
	// Group restrictions rg.
	for _, r := range q.GroupRestrs {
		if err := t.addRestriction(r, q.Grouping); err != nil {
			return "", err
		}
	}
	// Measuring expression mE.
	measureVar := RootVar
	if _, isIdent := q.Measuring.(Ident); !isIdent && q.Measuring != nil {
		v, derived, err := t.walkAttr(q.Measuring, RootVar)
		if err != nil {
			return "", err
		}
		if derived {
			// A derived measure like year∘date aggregates over the computed
			// expression; bind it first so aggregates reference a variable.
			bound := t.newVar()
			t.patterns = append(t.patterns, fmt.Sprintf("BIND(%s AS %s)", v, bound))
			v = bound
		}
		measureVar = v
	}
	// Measuring restrictions rm.
	for _, r := range q.MeasRestrs {
		if err := t.addMeasureRestriction(r, measureVar); err != nil {
			return "", err
		}
	}
	// Operations opE/ro.
	for _, op := range q.Ops {
		agg := t.aggExpr(op, measureVar)
		name := t.aggName(op, q)
		t.selects = append(t.selects, fmt.Sprintf("(%s AS ?%s)", agg, name))
		if op.RestrictOp != "" {
			t.havings = append(t.havings,
				fmt.Sprintf("(%s %s %s)", agg, op.RestrictOp, op.RestrictValue.SPARQL()))
		}
	}
	return t.render(), nil
}

func (t *translation) aggExpr(op Operation, measureVar string) string {
	inner := measureVar
	if op.Distinct {
		inner = "DISTINCT " + inner
	}
	return fmt.Sprintf("%s(%s)", op.Op, inner)
}

func (t *translation) aggName(op Operation, q *Query) string {
	base := strings.ToLower(string(op.Op))
	suffix := ""
	if q.Measuring != nil {
		if p, ok := lastProp(q.Measuring); ok {
			suffix = "_" + localPart(p.Name)
		}
	}
	name := base + suffix
	// Disambiguate duplicates (e.g. SUM twice with different restrictions).
	n := 0
	for _, s := range t.selects {
		if strings.Contains(s, "?"+name+")") || strings.HasSuffix(s, "?"+name+")") {
			n++
		}
	}
	if n > 0 {
		name = fmt.Sprintf("%s%d", name, n+1)
	}
	return name
}

func lastProp(a Attr) (Prop, bool) {
	switch x := a.(type) {
	case Prop:
		return x, true
	case Comp:
		return lastProp(x.Outer)
	case Derived:
		if x.Sub == nil {
			return Prop{}, false
		}
		return lastProp(x.Sub)
	case Pair:
		if len(x.Items) > 0 {
			return lastProp(x.Items[len(x.Items)-1])
		}
	}
	return Prop{}, false
}

func localPart(name string) string {
	if i := strings.LastIndexAny(name, "#/:"); i >= 0 && i < len(name)-1 {
		return name[i+1:]
	}
	return name
}

// addGrouping walks the grouping expression, appending its triple patterns
// and registering its result variables/expressions for SELECT and GROUP BY.
func (t *translation) addGrouping(g Attr) error {
	if pair, ok := g.(Pair); ok {
		// Algorithm 2 — Pairing: all components share the root variable.
		for _, item := range pair.Items {
			if err := t.addGrouping(item); err != nil {
				return err
			}
		}
		return nil
	}
	v, derived, err := t.walkAttr(g, RootVar)
	if err != nil {
		return err
	}
	t.retVars = append(t.retVars, v)
	if derived {
		// GROUP BY on a derived expression needs a named binding in SELECT;
		// SPARQL allows grouping by the expression itself.
		t.groupBy = append(t.groupBy, v)
	} else {
		t.groupBy = append(t.groupBy, v)
	}
	return nil
}

// walkAttr translates an attribute expression starting at variable from,
// returning the SPARQL variable (or derived expression) holding its value.
// derived=true means the returned string is an expression, not a variable.
//
// This is Algorithm 2 — Composition plus Algorithm 3 (derived attributes).
func (t *translation) walkAttr(a Attr, from string) (string, bool, error) {
	switch x := a.(type) {
	case Prop:
		iri := t.tr.resolve(x.Name)
		v := t.newVar()
		if x.Inverse {
			t.patterns = append(t.patterns, fmt.Sprintf("%s <%s> %s .", v, iri.Value, from))
		} else {
			t.patterns = append(t.patterns, fmt.Sprintf("%s <%s> %s .", from, iri.Value, v))
		}
		return v, false, nil
	case Comp:
		innerV, innerDerived, err := t.walkAttr(x.Inner, from)
		if err != nil {
			return "", false, err
		}
		if innerDerived {
			return "", false, fmt.Errorf("hifun: cannot traverse property after derived attribute %s", x.Inner)
		}
		return t.walkAttr(x.Outer, innerV)
	case Derived:
		if x.Sub == nil {
			return "", false, fmt.Errorf("hifun: derived function %s lacks an argument", x.Func)
		}
		subV, subDerived, err := t.walkAttr(x.Sub, from)
		if err != nil {
			return "", false, err
		}
		if subDerived {
			return fmt.Sprintf("%s(%s)", x.Func, subV), true, nil
		}
		return fmt.Sprintf("%s(%s)", x.Func, subV), true, nil
	case Ident:
		return from, false, nil
	case Pair:
		return "", false, fmt.Errorf("hifun: nested pairing is not a function")
	default:
		return "", false, fmt.Errorf("hifun: unknown attribute %T", a)
	}
}

// addRestriction implements rg (and the general case of Algorithm 4): the
// restriction path is walked from the root; a URI value replaces the last
// object, a literal value becomes a FILTER, a value set becomes IN.
func (t *translation) addRestriction(r Restriction, contextAttr Attr) error {
	path := r.Path
	if path == nil {
		path = contextAttr
	}
	if path == nil {
		return fmt.Errorf("hifun: restriction %s has no path (empty grouping)", r)
	}
	return t.emitRestriction(path, r)
}

// addMeasureRestriction implements rm: a restriction without an explicit
// path constrains the measure variable directly (§4.2.2's FILTER case); a
// pathful restriction walks from the root like Algorithm 4.
func (t *translation) addMeasureRestriction(r Restriction, measureVar string) error {
	if r.Path != nil {
		return t.emitRestriction(r.Path, r)
	}
	if len(r.Values) > 0 {
		t.filters = append(t.filters, inFilter(measureVar, r.Values))
		return nil
	}
	if r.Value.Kind == rdf.KindIRI && r.Op == "=" {
		// URI measuring restriction: right(m) is the URI itself.
		t.filters = append(t.filters, fmt.Sprintf("(%s = %s)", measureVar, r.Value.SPARQL()))
		return nil
	}
	t.filters = append(t.filters, fmt.Sprintf("(%s %s %s)", measureVar, r.Op, r.Value.SPARQL()))
	return nil
}

func (t *translation) emitRestriction(path Attr, r Restriction) error {
	// URI equality: walk the path but fix the final object (the
	// "triplePatterns(g) += ?x1 g rg" rule of Algorithm 1 / 4).
	if len(r.Values) == 0 && r.Value.Kind == rdf.KindIRI && r.Op == "=" {
		return t.walkWithFixedEnd(path, RootVar, r.Value)
	}
	v, _, err := t.walkAttr(path, RootVar)
	if err != nil {
		return err
	}
	if len(r.Values) > 0 {
		t.filters = append(t.filters, inFilter(v, r.Values))
		return nil
	}
	t.filters = append(t.filters, fmt.Sprintf("(%s %s %s)", v, r.Op, r.Value.SPARQL()))
	return nil
}

// walkWithFixedEnd emits the path's triple patterns with the last object
// replaced by the restriction URI.
func (t *translation) walkWithFixedEnd(a Attr, from string, end rdf.Term) error {
	switch x := a.(type) {
	case Prop:
		iri := t.tr.resolve(x.Name)
		if x.Inverse {
			t.patterns = append(t.patterns, fmt.Sprintf("%s <%s> %s .", end.SPARQL(), iri.Value, from))
		} else {
			t.patterns = append(t.patterns, fmt.Sprintf("%s <%s> %s .", from, iri.Value, end.SPARQL()))
		}
		return nil
	case Comp:
		innerV, innerDerived, err := t.walkAttr(x.Inner, from)
		if err != nil {
			return err
		}
		if innerDerived {
			return fmt.Errorf("hifun: cannot restrict through derived attribute")
		}
		return t.walkWithFixedEnd(x.Outer, innerV, end)
	case Derived:
		// Derived values are literals; equality goes through FILTER.
		v, _, err := t.walkAttr(a, from)
		if err != nil {
			return err
		}
		t.filters = append(t.filters, fmt.Sprintf("(%s = %s)", v, end.SPARQL()))
		return nil
	default:
		return fmt.Errorf("hifun: cannot fix end of %T", a)
	}
}

func inFilter(v string, values []rdf.Term) string {
	parts := make([]string, len(values))
	for i, t := range values {
		parts[i] = t.SPARQL()
	}
	return fmt.Sprintf("(%s IN (%s))", v, strings.Join(parts, ", "))
}

// render assembles the final SPARQL string (the Q template of §4.2.5).
func (t *translation) render() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for _, v := range t.retVars {
		sb.WriteString(v)
		sb.WriteByte(' ')
	}
	sb.WriteString(strings.Join(t.selects, " "))
	sb.WriteString("\nWHERE {\n")
	for _, p := range t.patterns {
		sb.WriteString("  ")
		sb.WriteString(p)
		sb.WriteByte('\n')
	}
	if len(t.filters) > 0 {
		sb.WriteString("  FILTER(")
		sb.WriteString(strings.Join(t.filters, " && "))
		sb.WriteString(")\n")
	}
	sb.WriteString("}")
	if len(t.groupBy) > 0 {
		sb.WriteString("\nGROUP BY ")
		sb.WriteString(strings.Join(t.groupBy, " "))
	}
	if len(t.havings) > 0 {
		sb.WriteString("\nHAVING ")
		sb.WriteString(strings.Join(t.havings, " "))
	}
	return sb.String()
}
