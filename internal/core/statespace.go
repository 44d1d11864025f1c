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
	HIFUN        string // the current analytic query, if expressible
}

// ComputeUIState runs Algorithm 5 for the current state: Part A computes
// the right-frame objects, Part B the class facets, Part C the property
// facets. maxObjects caps the right frame (paging).
func (s *Session) ComputeUIState(maxObjects int, includeInverse bool) *UIState {
	defer observeSince(uiStateSeconds, time.Now())
	l := s.top()
	st := l.state()
	ui := &UIState{
		TotalObjects: st.Ext.Len(),
		Breadcrumb:   st.Int.String(),
		Analytics:    l.analytics,
		Depth:        len(s.levels),
	}
	// Part A: objects of the right frame.
	items := st.Ext.Items()
	if maxObjects > 0 && len(items) > maxObjects {
		items = items[:maxObjects]
	}
	typeT := rdf.NewIRI(rdf.RDFType)
	var types []rdf.Term
	ui.Objects = make([]ObjectCard, 0, len(items))
	for _, o := range items {
		types = types[:0]
		l.model.G.Match(o, typeT, rdf.Any, func(t rdf.Triple) bool {
			types = append(types, t.O)
			return true
		})
		ui.Objects = append(ui.Objects, ObjectCard{Object: o, Type: displayType(l.model.Schema, types)})
	}
	// Parts B and C: class facets, and property facets with button states.
	ui.Classes, ui.Facets = l.transitionMarkers(st, includeInverse)
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

// markerSlot is the one remembered result of transitionMarkers: the class
// tree, facets and buckets of the level's current state, for one inverse
// setting. The level drops it whenever its current state changes, a rebuild
// after a write to the graph included.
type markerSlot struct {
	includeInverse bool
	classes        []facet.ClassNode
	facets         []FacetView // button states unset
}

// transitionMarkers computes Part B and Part C of Algorithm 5 for the
// current state st, or returns what the last call computed for it. The facet
// views are a fresh copy each time (the caller sets the button states on
// them); the class tree and the value lists are shared, read-only.
func (l *level) transitionMarkers(st *facet.State, includeInverse bool) ([]facet.ClassNode, []FacetView) {
	if m := l.markers; m == nil || m.includeInverse != includeInverse {
		m = &markerSlot{includeInverse: includeInverse, classes: l.model.ClassFacet(st)}
		for _, f := range l.model.PropertyFacets(st, includeInverse) {
			fv := FacetView{Facet: f}
			numeric := 0
			for _, vc := range f.Values {
				if vc.Value.IsNumeric() {
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
	}
	return l.markers.classes, append([]FacetView(nil), l.markers.facets...)
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
		for i, vc := range f.Values {
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
