package facet

import (
	"sort"

	"rdfanalytics/internal/rdf"
)

// ValueGroup is one class-grouped block of a facet's values (Fig 5.4 d):
// the values of the facet that are instances of Class, with the summed
// count. Values with no class land in a group with the zero Class.
type ValueGroup struct {
	Class  rdf.Term
	Count  int
	Values []ValueCount
}

// GroupedValues organizes the transition markers of a property facet by the
// classes of the values, as in Fig 5.4 (d): "by hardDrive (3) — SSD (2):
// SSD1, SSD2; NVMe (1): NVMe1". Each value is filed under its most specific
// class (minimal w.r.t. the subclass order); multi-typed values pick the
// term-order-smallest minimal class for determinism.
func (m *Model) GroupedValues(s *State, p rdf.Term, inverse bool) []ValueGroup {
	joins := m.Joins(s.Ext, p, inverse)
	byClass := map[rdf.Term][]ValueCount{}
	for v, count := range joins {
		cls := m.specificClass(v)
		byClass[cls] = append(byClass[cls], ValueCount{Value: v, Count: count})
	}
	out := make([]ValueGroup, 0, len(byClass))
	for cls, vals := range byClass {
		sortValueCounts(vals)
		total := 0
		for _, vc := range vals {
			total += vc.Count
		}
		out = append(out, ValueGroup{Class: cls, Count: total, Values: vals})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Class.Less(out[j].Class)
	})
	return out
}

// specificClass returns the most specific class of v, or the zero Term.
func (m *Model) specificClass(v rdf.Term) rdf.Term {
	if !v.IsResource() {
		return rdf.Term{}
	}
	var types []rdf.Term
	m.G.Match(v, rdf.NewIRI(rdf.RDFType), rdf.Any, func(t rdf.Triple) bool {
		if _, isClass := m.Schema.Classes[t.O]; isClass {
			types = append(types, t.O)
		}
		return true
	})
	if len(types) == 0 {
		return rdf.Term{}
	}
	// Minimal types: those with no other held type below them.
	var minimal []rdf.Term
	for _, c := range types {
		isMin := true
		for _, d := range types {
			if d == c {
				continue
			}
			if _, below := m.Schema.SuperClasses[d][c]; below {
				// d is a subclass of c, so c is not minimal.
				isMin = false
				break
			}
		}
		if isMin {
			minimal = append(minimal, c)
		}
	}
	rdf.SortTerms(minimal)
	return minimal[0]
}
