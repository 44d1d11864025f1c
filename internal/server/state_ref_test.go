package server

import (
	"rdfanalytics/internal/core"
	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/rdf"
)

// The reference the interaction API's hand-written bodies are held to: the
// mirror structs its answers were encoded through with encoding/json before
// wire.go wrote them directly, with the conversions that filled them,
// verbatim. stateLocked lost only its unused receiver; termJSON is core.TermJSON
// as it was, with the display label answers carry. TestBodiesMatchReference
// compares json.NewEncoder(w).Encode of these to what the handlers write.

// termJSON is the wire form of an RDF term.
type termJSON struct {
	Kind     string `json:"kind"` // iri | blank | literal
	Value    string `json:"value"`
	Datatype string `json:"datatype,omitempty"`
	Lang     string `json:"lang,omitempty"`
	Label    string `json:"label,omitempty"` // display hint (output only)
}

func toTermJSON(t rdf.Term) termJSON {
	out := termJSON{Value: t.Value, Datatype: t.Datatype, Lang: t.Lang, Label: t.LocalName()}
	switch t.Kind {
	case rdf.KindIRI:
		out.Kind = "iri"
	case rdf.KindBlank:
		out.Kind = "blank"
	default:
		out.Kind = "literal"
	}
	return out
}

// stateJSON is the wire form of the UI state.
type stateJSON struct {
	Breadcrumb   string        `json:"breadcrumb"`
	TotalObjects int           `json:"totalObjects"`
	Depth        int           `json:"depth"`
	HIFUN        string        `json:"hifun,omitempty"`
	Objects      []objectJSON  `json:"objects"`
	Classes      []classJSON   `json:"classes"`
	Facets       []facetJSON   `json:"facets"`
	Analytics    analyticsJSON `json:"analytics"`
}

type objectJSON struct {
	IRI   string `json:"iri"`
	Label string `json:"label"`
	Type  string `json:"type,omitempty"`
}

type classJSON struct {
	IRI      string      `json:"iri"`
	Label    string      `json:"label"`
	Count    int         `json:"count"`
	Children []classJSON `json:"children,omitempty"`
}

type facetJSON struct {
	P        string       `json:"p"`
	Label    string       `json:"label"`
	Inverse  bool         `json:"inverse,omitempty"`
	Grouped  bool         `json:"grouped,omitempty"`
	Measured bool         `json:"measured,omitempty"`
	Numeric  bool         `json:"numeric,omitempty"`
	Values   []valJSON    `json:"values"`
	Buckets  []bucketJSON `json:"buckets,omitempty"`
}

type bucketJSON struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Count int     `json:"count"`
}

type valJSON struct {
	Term  termJSON `json:"term"`
	Count int      `json:"count"`
}

type analyticsJSON struct {
	GroupBy []string `json:"groupBy"`
	Measure string   `json:"measure,omitempty"`
	Ops     []string `json:"ops"`
}

func toClassJSON(nodes []facet.ClassNode) []classJSON {
	out := make([]classJSON, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, classJSON{
			IRI: n.Class.Value, Label: n.Class.LocalName(), Count: n.Count,
			Children: toClassJSON(n.Children),
		})
	}
	return out
}

func stateLocked(sess *core.Session) stateJSON {
	ui := sess.ComputeUIState(50, true)
	out := stateJSON{
		Breadcrumb:   ui.Breadcrumb,
		TotalObjects: ui.TotalObjects,
		Depth:        ui.Depth,
		HIFUN:        ui.HIFUN,
		Classes:      toClassJSON(ui.Classes),
	}
	for _, o := range ui.Objects {
		oj := objectJSON{IRI: o.Object.Value, Label: o.Object.LocalName()}
		if !o.Type.IsZero() {
			oj.Type = o.Type.LocalName()
		}
		out.Objects = append(out.Objects, oj)
	}
	for _, f := range ui.Facets {
		fj := facetJSON{
			P: f.P.Value, Label: f.P.LocalName(), Inverse: f.Inverse,
			Grouped: f.Grouped, Measured: f.Measured, Numeric: f.Numeric,
		}
		if len(f.Values) > 0 { // an empty facet stays nil: it encodes as null
			fj.Values = make([]valJSON, 0, len(f.Values))
		}
		for _, vc := range sess.Model().Decode(f.Values) {
			fj.Values = append(fj.Values, valJSON{Term: toTermJSON(vc.Value), Count: vc.Count})
		}
		for _, b := range f.Buckets {
			fj.Buckets = append(fj.Buckets, bucketJSON{Lo: b.Lo, Hi: b.Hi, Count: b.Count})
		}
		out.Facets = append(out.Facets, fj)
	}
	a := ui.Analytics
	for _, g := range a.GroupBy {
		out.Analytics.GroupBy = append(out.Analytics.GroupBy, g.String())
	}
	if a.Measure.Path != nil || len(a.Ops) > 0 {
		out.Analytics.Measure = a.Measure.String()
	}
	for _, op := range a.Ops {
		out.Analytics.Ops = append(out.Analytics.Ops, op.String())
	}
	return out
}

// answerJSON is the wire form of an Answer Frame.
type answerJSON struct {
	GroupCols   []string     `json:"groupCols"`
	MeasureCols []string     `json:"measureCols"`
	Rows        [][]termJSON `json:"rows"`
	SPARQL      string       `json:"sparql"`
	HIFUN       string       `json:"hifun"`
}

// refAnswer is handleRun's body for ans, run from the HIFUN query hifunQuery.
func refAnswer(ans *hifun.Answer, hifunQuery string) answerJSON {
	out := answerJSON{
		GroupCols: ans.GroupCols, MeasureCols: ans.MeasureCols,
		SPARQL: ans.SPARQL, HIFUN: hifunQuery,
	}
	for _, row := range ans.Rows() {
		jr := make([]termJSON, len(row))
		for i, t := range row {
			jr[i] = toTermJSON(t)
		}
		out.Rows = append(out.Rows, jr)
	}
	return out
}

// refValues is handleExpand's body for vals, markers of m.
func refValues(m *facet.Model, vals []facet.ValueCount) map[string]any {
	out := make([]valJSON, 0, len(vals))
	for _, vc := range m.Decode(vals) {
		out = append(out, valJSON{Term: toTermJSON(vc.Value), Count: vc.Count})
	}
	return map[string]any{"values": out}
}
