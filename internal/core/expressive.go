package core

import (
	"fmt"

	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/hifun"
)

// Chapter 7.1 — the expressive power of the interaction model: which HIFUN
// queries the click language can formulate. Expressible reports whether q
// is reachable by some sequence of UI actions, and when it is not, the
// reasons why.
//
// The model expresses:
//   - groupings that are pairings of property-path compositions (G clicks
//     on facets, possibly after path expansion), optionally wrapped in a
//     derived function (the transform button);
//   - a measuring function that is a single property-path composition or
//     the identity (one Σ facet at a time);
//   - attribute restrictions that correspond to clicks: URI equality,
//     value-set membership, and literal comparisons on a path;
//   - any of the aggregate operations, with result restrictions realized by
//     reloading the Answer Frame as a dataset (§5.3.3).
//
// It does not express: compositions that continue *after* a derived
// attribute (a click cannot traverse a computed value), pairings nested
// inside compositions (not a function), or a pairing as the measuring
// function.
func Expressible(q *hifun.Query) (bool, []string) {
	var reasons []string
	if q == nil {
		return false, []string{"nil query"}
	}
	if len(q.Ops) == 0 {
		reasons = append(reasons, "no aggregate operation (a Σ click is required)")
	}
	for _, op := range q.Ops {
		if !hifun.ValidOp(string(op.Op)) {
			reasons = append(reasons, fmt.Sprintf("unsupported operation %s", op.Op))
		}
	}
	// Grouping: ε or pairing of path expressions.
	if q.Grouping != nil {
		if pair, ok := q.Grouping.(hifun.Pair); ok {
			for _, item := range pair.Items {
				reasons = append(reasons, pathExprReasons("grouping", item)...)
			}
		} else {
			reasons = append(reasons, pathExprReasons("grouping", q.Grouping)...)
		}
	}
	// Measuring: identity or a single path expression (no pairing).
	switch m := q.Measuring.(type) {
	case nil, hifun.Ident:
		// ok: (g, ID, COUNT)
	case hifun.Pair:
		reasons = append(reasons, "measuring function is a pairing (the Σ button selects one facet)")
		_ = m
	default:
		reasons = append(reasons, pathExprReasons("measuring", q.Measuring)...)
	}
	for _, r := range append(append([]hifun.Restriction{}, q.GroupRestrs...), q.MeasRestrs...) {
		if r.Path != nil {
			reasons = append(reasons, pathExprReasons("restriction", r.Path)...)
		}
		if !facet.ValidRangeOp(r.Op) {
			reasons = append(reasons, fmt.Sprintf("restriction operator %q has no UI control", r.Op))
		}
	}
	return len(reasons) == 0, reasons
}

// pathExprReasons validates one attribute expression as a UI-expressible
// path: a composition chain of properties, optionally topped by one derived
// function.
func pathExprReasons(role string, a hifun.Attr) []string {
	// Strip one optional outer derived function.
	if d, ok := a.(hifun.Derived); ok {
		if d.Sub == nil {
			return []string{fmt.Sprintf("%s: derived function %s lacks an argument", role, d.Func)}
		}
		if !hifun.IsDerivedFunc(d.Func) {
			return []string{fmt.Sprintf("%s: unknown derived function %s", role, d.Func)}
		}
		a = d.Sub
	}
	return compositionReasons(role, a)
}

func compositionReasons(role string, a hifun.Attr) []string {
	switch x := a.(type) {
	case hifun.Prop:
		return nil
	case hifun.Comp:
		var out []string
		// Inner must itself be a plain composition (no derived inside: a
		// click cannot traverse a computed value).
		if _, isDerived := x.Inner.(hifun.Derived); isDerived {
			out = append(out, fmt.Sprintf("%s: composition traverses a derived attribute", role))
		} else {
			out = append(out, compositionReasons(role, x.Inner)...)
		}
		if _, isDerived := x.Outer.(hifun.Derived); isDerived {
			out = append(out, fmt.Sprintf("%s: derived function in the middle of a path", role))
		} else {
			out = append(out, compositionReasons(role, x.Outer)...)
		}
		return out
	case hifun.Pair:
		return []string{fmt.Sprintf("%s: pairing nested inside a composition is not a function", role)}
	case hifun.Ident:
		return []string{fmt.Sprintf("%s: identity cannot appear inside a path", role)}
	case hifun.Derived:
		return []string{fmt.Sprintf("%s: stacked derived functions are not expressible", role)}
	default:
		return []string{fmt.Sprintf("%s: unknown attribute %T", role, a)}
	}
}
