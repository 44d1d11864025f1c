package core

import (
	"fmt"
	"strings"
	"time"

	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/rdf"
)

// This file is the procedural specification of §5.4: the algorithm that
// implements the state space (Algorithm 5). ComputeUIState assembles
// everything the GUI of Fig 5.1 renders for the current state: the objects
// of the right frame (Part A), the class facet tree (Part B), the property
// facets with their transition markers and G/Σ button states (Part C), the
// breadcrumb (intention) and the analytics selections.

// ObjectCard is one entry of the right frame: an object and the type it is
// displayed with.
type ObjectCard struct {
	Object rdf.Term
	Type   rdf.Term
}

// FacetView is a property facet as rendered: the facet plus its button
// states (whether it is currently a grouping attribute or the measure).
type FacetView struct {
	facet.Facet
	// Grouped marks the facet's G button as active.
	Grouped bool
	// Measured marks the facet's Σ button as active.
	Measured bool
	// Numeric reports whether the facet's values are (mostly) numeric, so
	// the GUI can offer range filters and aggregate functions beyond COUNT.
	Numeric bool
	// Buckets holds equal-width interval buckets for numeric facets (nil
	// when the facet has too few distinct numeric values): the data behind
	// the range-filter form of Example 3.
	Buckets []facet.Bucket
}

// UIState is the complete render model of one interaction state.
type UIState struct {
	Objects      []ObjectCard
	TotalObjects int
	Classes      []facet.ClassNode
	Facets       []FacetView
	Breadcrumb   string
	Analytics    Analytics
	Depth        int
	HIFUN        string       // the current analytic query, if expressible
	model        *facet.Model // decodes the markers RenderText prints
}

// ComputeUIState runs Algorithm 5 for the current state: Part A computes
// the right-frame objects, Part B the class facets, Part C the property
// facets. maxObjects caps the right frame (paging). The objects, the class
// tree and the value lists are the level's own: shared, and read-only.
func (s *Session) ComputeUIState(maxObjects int, includeInverse bool) *UIState {
	defer observeSince(uiStateSeconds, time.Now())
	l := s.top()
	st := l.state()
	m := l.render(st, maxObjects, includeInverse)
	ui := &UIState{
		Objects:      m.objects,
		TotalObjects: st.Ext.Len(),
		Classes:      m.classes,
		Facets:       append([]FacetView(nil), m.facets...),
		Breadcrumb:   m.breadcrumb,
		Analytics:    l.analytics,
		Depth:        len(s.levels),
		model:        l.model,
	}
	for i := range ui.Facets {
		fv := &ui.Facets[i]
		p1 := facet.Path{{P: fv.P, Inverse: fv.Inverse}}
		for _, g := range l.analytics.GroupBy {
			if g.Path.Equal(p1) {
				fv.Grouped = true
			}
		}
		fv.Measured = l.analytics.Measure.Path.Equal(p1)
	}
	if q, err := s.BuildHIFUNQuery(); err == nil {
		ui.HIFUN = q.String()
	}
	return ui
}

// displayType picks the type an object card shows from the object's
// rdf:type values: a most specific one — a class none of the others is a
// subclass of — and the first in term order when several are. The choice
// depends on the triples alone, not on the order a scan yields them in, so a
// card reads the same before and after a restart. With no such class (a
// subclass cycle) it is the first type in term order.
func displayType(schema *rdf.Schema, types []rdf.Term) rdf.Term {
	var best, first rdf.Term
	for _, c := range types {
		if first.IsZero() || c.Less(first) {
			first = c
		}
		specific := true
		for _, d := range types {
			if _, sub := schema.SuperClasses[d][c]; sub {
				specific = false
				break
			}
		}
		if specific && (best.IsZero() || c.Less(best)) {
			best = c
		}
	}
	if best.IsZero() {
		return first
	}
	return best
}

// markerSlot is the one remembered render of the level's current state, for
// one page size and inverse setting: the first objects, the class tree, and
// the facets with their markers as dictionary IDs. The level drops it when
// its current state changes (a rebuild after a write included), not on G/Σ.
type markerSlot struct {
	maxObjects     int
	includeInverse bool
	breadcrumb     string
	objects        []ObjectCard
	classes        []facet.ClassNode
	facets         []FacetView // button states unset
}

// render computes Parts A, B and C of Algorithm 5 for the current state st,
// or returns what the last call computed for it, shared and read-only.
func (l *level) render(st *facet.State, maxObjects int, includeInverse bool) *markerSlot {
	if m := l.markers; m != nil && m.maxObjects == maxObjects && m.includeInverse == includeInverse {
		return m
	}
	m := &markerSlot{maxObjects: maxObjects, includeInverse: includeInverse, breadcrumb: st.Int.String(), classes: l.model.ClassFacet(st)}
	typeT := rdf.NewIRI(rdf.RDFType)
	var types []rdf.Term
	// Part A: the objects of the right frame, all of them when uncapped.
	if maxObjects <= 0 {
		maxObjects = st.Ext.Len()
	}
	for _, o := range st.Ext.First(maxObjects) {
		types = types[:0]
		l.model.G.Match(o, typeT, rdf.Any, func(t rdf.Triple) bool {
			types = append(types, t.O)
			return true
		})
		m.objects = append(m.objects, ObjectCard{Object: o, Type: displayType(l.model.Schema, types)})
	}
	// Part C: a facet is numeric when most of its values' shapes are.
	facets := l.model.PropertyFacets(st, includeInverse)
	view := l.model.G.TermView()
	for _, f := range facets {
		fv := FacetView{Facet: f}
		numeric := 0
		for _, vc := range f.Values {
			if view.Shape(vc.ID).IsNumeric() {
				numeric++
			}
		}
		fv.Numeric = len(f.Values) > 0 && numeric*2 > len(f.Values)
		if fv.Numeric && !f.Inverse {
			fv.Buckets = l.model.NumericBuckets(st, f.P, 5)
		}
		m.facets = append(m.facets, fv)
	}
	l.markers = m
	return m
}

// RenderText renders the UI state as the two-frame text layout of Fig 5.1
// (left: facets, right: objects) for the terminal client.
func (ui *UIState) RenderText() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "── state: %s  [%d objects, level %d]\n", ui.Breadcrumb, ui.TotalObjects, ui.Depth)
	if ui.HIFUN != "" {
		fmt.Fprintf(&sb, "── analytics: %s\n", ui.HIFUN)
	}
	sb.WriteString("── classes\n")
	var walk func(nodes []facet.ClassNode, depth int)
	walk = func(nodes []facet.ClassNode, depth int) {
		for _, n := range nodes {
			fmt.Fprintf(&sb, "%s%s (%d)\n", strings.Repeat("  ", depth+1), n.Class.LocalName(), n.Count)
			walk(n.Children, depth+1)
		}
	}
	walk(ui.Classes, 0)
	sb.WriteString("── facets\n")
	for _, f := range ui.Facets {
		name := f.P.LocalName()
		if f.Inverse {
			name = "^" + name
		}
		marks := ""
		if f.Grouped {
			marks += " [G]"
		}
		if f.Measured {
			marks += " [Σ]"
		}
		fmt.Fprintf(&sb, "  by %s%s\n", name, marks)
		for i, vc := range ui.model.Decode(f.Values[:min(len(f.Values), 9)]) {
			if i >= 8 {
				fmt.Fprintf(&sb, "      … %d more\n", len(f.Values)-i)
				break
			}
			fmt.Fprintf(&sb, "      %s (%d)\n", vc.Value.LocalName(), vc.Count)
		}
	}
	sb.WriteString("── objects\n")
	for _, o := range ui.Objects {
		typ := ""
		if !o.Type.IsZero() {
			typ = " : " + o.Type.LocalName()
		}
		fmt.Fprintf(&sb, "  %s%s\n", o.Object.LocalName(), typ)
	}
	return sb.String()
}
