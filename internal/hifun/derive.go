package hifun

import (
	"fmt"

	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

// §4.1.2: an analysis context can be *derived* from a source dataset with a
// SPARQL CONSTRUCT query — the view-definition route for applying HIFUN
// when the raw data does not satisfy its prerequisites, and in general "any
// query translation method for virtual integration can be employed".

// DeriveContext evaluates a CONSTRUCT query against source and wraps the
// constructed graph in a fresh analysis context with namespace ns.
func DeriveContext(source *rdf.Graph, constructQuery, ns string) (*Context, error) {
	derived, err := sparql.Construct(source, constructQuery)
	if err != nil {
		return nil, fmt.Errorf("hifun: deriving context: %w", err)
	}
	return NewContext(derived, ns), nil
}

// DeriveContextSelect evaluates a SELECT query and turns its result table
// into a context the way §5.3.3 loads answers: each row becomes a fresh
// item with one triple per bound column. This is the "define D as a view
// of S" reading of §2.5.1 for tabular views.
func DeriveContextSelect(source *rdf.Graph, selectQuery, ns string) (*Context, error) {
	q, err := sparql.Parse(selectQuery)
	if err != nil {
		return nil, err
	}
	if q.Form != sparql.FormSelect {
		return nil, fmt.Errorf("hifun: DeriveContextSelect needs a SELECT query")
	}
	res, err := sparql.ExecSelect(source, q)
	if err != nil {
		return nil, err
	}
	res.Sort()
	g := rdf.NewGraph()
	rowClass := rdf.NewIRI(ns + "Row")
	g.Add(rdf.Triple{S: rowClass, P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI(rdf.RDFSClass)})
	for i, row := range res.Rows {
		item := rdf.NewIRI(fmt.Sprintf("%srow%d", ns, i+1))
		g.Add(rdf.Triple{S: item, P: rdf.NewIRI(rdf.RDFType), O: rowClass})
		for j, v := range res.Vars {
			if t := row[j]; !t.IsZero() {
				g.Add(rdf.Triple{S: item, P: rdf.NewIRI(ns + v), O: t})
			}
		}
	}
	ctx := NewContext(g, ns)
	ctx.Root = rowClass
	return ctx, nil
}
