package facet

import (
	"testing"

	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

// TestIntentionValuesReadBackAsWritten: a clicked value reaches the generated
// SPARQL as one term, whatever its lexical form — a string ending in a
// backslash or holding a newline, an integer whose lexical form is SPARQL
// text — and the FILTER compares against exactly that term.
func TestIntentionValuesReadBackAsWritten(t *testing.T) {
	m := model(t)
	for _, v := range []rdf.Term{
		rdf.NewString(`a\`),
		rdf.NewTyped("1) || (true", rdf.XSDInteger),
		rdf.NewString("two\nlines"),
		rdf.NewString(`say "hi"`),
		rdf.NewInteger(2),
	} {
		in := Intention{Class: pe("Laptop"), Conds: []Cond{{Path: Path{{P: pe("USBPorts")}}, Op: ">", Value: v}}}
		src := in.ToSPARQL()
		q, err := sparql.Parse(src)
		if err != nil {
			t.Errorf("%v: the generated query does not parse: %v\n%s", v, err, src)
			continue
		}
		var filter sparql.Expr
		for _, e := range q.Where.Elems {
			if e.Filter != nil {
				filter = e.Filter
			}
		}
		cmp, ok := filter.(sparql.ExprBinary)
		if !ok || cmp.Op != ">" {
			t.Errorf("%v: the FILTER is %v, want one > comparison\n%s", v, filter, src)
			continue
		}
		if got, ok := cmp.Right.(sparql.ExprTerm); !ok || got.Term != v {
			t.Errorf("%v: the FILTER compares against %v\n%s", v, cmp.Right, src)
		}
		ans, err := in.Answer(m.G)
		if err != nil {
			t.Errorf("%v: %v", v, err)
		}
		want := 0 // no laptop has more USB ports than a value that is no number
		if v == rdf.NewInteger(2) {
			want = 1
		}
		if len(ans) != want {
			t.Errorf("%v: %d laptops match, want %d", v, len(ans), want)
		}
	}
}
