package facet

// The term-keyed facet implementation the ID-space one replaced, kept as the
// reference the differential tests compare against: sets are maps keyed on
// rdf.Term, every scan is Graph.Match decoding a Triple per row, every sort
// is sort.Slice over Term.Less. Nothing here is shared with model.go or
// buckets.go except the plain result types (ValueCount, ClassNode, Facet,
// Bucket) and Intention.

import (
	"math"
	"sort"

	"rdfanalytics/internal/rdf"
)

// refModel is the reference model over the same graph and schema.
type refModel struct {
	G         *rdf.Graph
	Schema    *rdf.Schema
	MaxValues int
}

func refOf(m *Model) refModel { return refModel{G: m.G, Schema: m.Schema, MaxValues: m.MaxValues} }

// refSet is an extension: a set of resources with deterministic iteration.
type refSet struct {
	set   map[rdf.Term]struct{}
	items []rdf.Term // sorted lazily
	dirty bool
}

// newRefSet builds a set from the given terms.
func newRefSet(ts ...rdf.Term) *refSet {
	s := &refSet{set: make(map[rdf.Term]struct{}, len(ts))}
	for _, t := range ts {
		s.Add(t)
	}
	return s
}

// Add inserts t.
func (s *refSet) Add(t rdf.Term) {
	if _, ok := s.set[t]; !ok {
		s.set[t] = struct{}{}
		s.dirty = true
	}
}

// Has reports membership.
func (s *refSet) Has(t rdf.Term) bool {
	_, ok := s.set[t]
	return ok
}

// Len returns the cardinality.
func (s *refSet) Len() int { return len(s.set) }

// Items returns the members, sorted.
func (s *refSet) Items() []rdf.Term {
	if s.dirty || s.items == nil {
		s.items = make([]rdf.Term, 0, len(s.set))
		for t := range s.set {
			s.items = append(s.items, t)
		}
		sort.Slice(s.items, func(i, j int) bool { return s.items[i].Less(s.items[j]) })
		s.dirty = false
	}
	return s.items
}

// refState is one interaction state: an extension (the displayed objects) and
// an intention (the query whose answer the extension is).
type refState struct {
	Ext *refSet
	Int Intention
}

// Start returns the initial state s0: the extension holds every resource
// that appears as a subject (the named individuals of the dataset) and the
// intention is unrestricted.
func (m refModel) Start() *refState {
	ext := newRefSet()
	m.G.Match(rdf.Any, rdf.Any, rdf.Any, func(t rdf.Triple) bool {
		if t.S.IsResource() && !m.isSchemaEntity(t.S) {
			ext.Add(t.S)
		}
		return true
	})
	return &refState{Ext: ext}
}

// isSchemaEntity filters classes and properties out of the object list.
func (m refModel) isSchemaEntity(t rdf.Term) bool {
	if _, ok := m.Schema.Classes[t]; ok {
		return true
	}
	if _, ok := m.Schema.Properties[t]; ok {
		return true
	}
	return false
}

// StartFrom returns a state whose extension is an externally produced
// result set (e.g. a keyword query), per §5.4.1.
func (m refModel) StartFrom(results []rdf.Term) *refState {
	return &refState{
		Ext: newRefSet(results...),
		Int: Intention{Seed: append([]rdf.Term{}, results...)},
	}
}

// Restrict implements Restrict(E, p:v) of §5.3.1.
func (m refModel) Restrict(e *refSet, p rdf.Term, inverse bool, v rdf.Term) *refSet {
	out := newRefSet()
	if inverse {
		// e' survives if (v, p, e') holds.
		m.G.Match(v, p, rdf.Any, func(t rdf.Triple) bool {
			if e.Has(t.O) {
				out.Add(t.O)
			}
			return true
		})
		return out
	}
	m.G.Match(rdf.Any, p, v, func(t rdf.Triple) bool {
		if e.Has(t.S) {
			out.Add(t.S)
		}
		return true
	})
	return out
}

// RestrictSet implements Restrict(E, p:vset).
func (m refModel) RestrictSet(e *refSet, p rdf.Term, inverse bool, vset *refSet) *refSet {
	out := newRefSet()
	for _, v := range vset.Items() {
		for _, t := range m.Restrict(e, p, inverse, v).Items() {
			out.Add(t)
		}
	}
	return out
}

// RestrictClass implements Restrict(E, c).
func (m refModel) RestrictClass(e *refSet, c rdf.Term) *refSet {
	out := newRefSet()
	m.G.Match(rdf.Any, rdf.NewIRI(rdf.RDFType), c, func(t rdf.Triple) bool {
		if e.Has(t.S) {
			out.Add(t.S)
		}
		return true
	})
	return out
}

// RestrictOp filters e by a literal comparison at the end of a single hop:
// the range-filter button of Example 3.
func (m refModel) RestrictOp(e *refSet, p rdf.Term, op string, v rdf.Term) *refSet {
	out := newRefSet()
	m.G.Match(rdf.Any, p, rdf.Any, func(t rdf.Triple) bool {
		if !e.Has(t.S) {
			return true
		}
		if refCompareHolds(t.O, op, v) {
			out.Add(t.S)
		}
		return true
	})
	return out
}

func refCompareHolds(a rdf.Term, op string, b rdf.Term) bool {
	if op == "" || op == "=" {
		return a == b
	}
	if op == "!=" {
		return a != b
	}
	af, okA := a.Float()
	bf, okB := b.Float()
	if okA && okB {
		switch op {
		case "<":
			return af < bf
		case "<=":
			return af <= bf
		case ">":
			return af > bf
		case ">=":
			return af >= bf
		}
		return false
	}
	// Only genuinely temporal literals (xsd:date / xsd:dateTime) compare on
	// the time line; a plain string that parses like a date does not.
	if !a.IsTemporal() || !b.IsTemporal() {
		return false
	}
	at, okA2 := a.Time()
	bt, okB2 := b.Time()
	if okA2 && okB2 {
		switch op {
		case "<":
			return at.Before(bt)
		case "<=":
			return !at.After(bt)
		case ">":
			return at.After(bt)
		case ">=":
			return !at.Before(bt)
		}
	}
	return false
}

// Joins implements Joins(E, p) of §5.3.1, counting on terms.
func (m refModel) Joins(e *refSet, p rdf.Term, inverse bool) map[rdf.Term]int {
	out := map[rdf.Term]int{}
	m.G.Match(rdf.Any, p, rdf.Any, func(t rdf.Triple) bool {
		if inverse {
			if e.Has(t.O) {
				out[t.S]++
			}
		} else if e.Has(t.S) {
			out[t.O]++
		}
		return true
	})
	return out
}

// refSortValueCounts orders markers by descending count, then term order — the
// usual facet display order.
func refSortValueCounts(vcs []ValueCount) {
	sort.Slice(vcs, func(i, j int) bool {
		if vcs[i].Count != vcs[j].Count {
			return vcs[i].Count > vcs[j].Count
		}
		return vcs[i].Value.Less(vcs[j].Value)
	})
}

// ClassFacet computes the class-based transition markers for s: the maximal
// classes with nonzero counts, hierarchically organized (§5.3.2, Alg. 5
// Part B). Classes covering no current object are pruned (query guidance:
// no click leads to an empty result).
func (m refModel) ClassFacet(s *refState) []ClassNode {
	var build func(c rdf.Term) (ClassNode, bool)
	build = func(c rdf.Term) (ClassNode, bool) {
		count := m.RestrictClass(s.Ext, c).Len()
		node := ClassNode{Class: c, Count: count}
		for _, sub := range m.Schema.DirectSubClasses(c) {
			if child, ok := build(sub); ok {
				node.Children = append(node.Children, child)
			}
		}
		if count == 0 && len(node.Children) == 0 {
			return node, false
		}
		return node, true
	}
	var out []ClassNode
	for _, c := range m.Schema.MaximalClasses() {
		if node, ok := build(c); ok {
			out = append(out, node)
		}
	}
	return out
}

// Total returns the number of E-members having the property (the count
// shown next to the facet name, "by manufacturer (2)").
func refTotal(f Facet, m refModel, e *refSet) int {
	out := newRefSet()
	if f.Inverse {
		m.G.Match(rdf.Any, f.P, rdf.Any, func(t rdf.Triple) bool {
			if e.Has(t.O) {
				out.Add(t.O)
			}
			return true
		})
	} else {
		m.G.Match(rdf.Any, f.P, rdf.Any, func(t rdf.Triple) bool {
			if e.Has(t.S) {
				out.Add(t.S)
			}
			return true
		})
	}
	return out.Len()
}

// PropertyFacets computes the property-based transition markers of s
// (Alg. 5 Part C): one facet per property applicable to the extension, each
// with its joined values and counts. Inverse facets are included when
// includeInverse is set (the model's Pr⁻¹). The extension's ID set is
// resolved once and the per-property counting fans out across the worker
// pool (Model.Parallelism); results land in per-property slots, so output
// is identical at every parallelism level.
func (m refModel) PropertyFacets(s *refState, includeInverse bool) []Facet {
	var out []Facet
	for _, p := range m.applicableProperties() {
		if values := m.Joins(s.Ext, p, false); len(values) > 0 {
			out = append(out, m.makeFacet(p, false, values))
		}
		if includeInverse {
			if ivalues := m.Joins(s.Ext, p, true); len(ivalues) > 0 {
				out = append(out, m.makeFacet(p, true, ivalues))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].P != out[j].P {
			return out[i].P.Less(out[j].P)
		}
		return !out[i].Inverse && out[j].Inverse
	})
	return out
}

func (m refModel) applicableProperties() []rdf.Term {
	var props []rdf.Term
	for p := range m.Schema.Properties {
		props = append(props, p)
	}
	sort.Slice(props, func(i, j int) bool { return props[i].Less(props[j]) })
	return props
}

func (m refModel) makeFacet(p rdf.Term, inverse bool, values map[rdf.Term]int) Facet {
	f := Facet{P: p, Inverse: inverse}
	for v, c := range values {
		f.Values = append(f.Values, ValueCount{Value: v, Count: c})
	}
	refSortValueCounts(f.Values)
	if m.MaxValues > 0 && len(f.Values) > m.MaxValues {
		f.Values = f.Values[:m.MaxValues]
	}
	return f
}

// ExpandPath computes the transition markers at the end of a successive
// property path p1…pk (§5.3.2, Fig 5.5): M_i = Joins(M_{i-1}, p_i) with
// M_0 = s.Ext. It returns the markers of the last step, or nil when the
// sequence is not successive (produces no values).
func (m refModel) ExpandPath(s *refState, path Path) []ValueCount {
	cur := s.Ext
	var values map[rdf.Term]int
	for _, step := range path {
		values = m.Joins(cur, step.P, step.Inverse)
		if len(values) == 0 {
			return nil
		}
		next := newRefSet()
		for v := range values {
			next.Add(v)
		}
		cur = next
	}
	var out []ValueCount
	for v, c := range values {
		out = append(out, ValueCount{Value: v, Count: c})
	}
	refSortValueCounts(out)
	return out
}

// ClickValue performs the transition of selecting value v at the end of
// path (Eq. 5.1): the extension is restricted backwards through the path
// and the intention gains the corresponding condition.
func (m refModel) ClickValue(s *refState, path Path, v rdf.Term) *refState {
	ext := m.restrictThroughPath(s.Ext, path, newRefSet(v))
	in := s.Int.Clone()
	in.Conds = append(in.Conds, Cond{Path: append(Path{}, path...), Value: v})
	return &refState{Ext: ext, Int: in}
}

// ClickValueSet selects a set of values at the path end (multi-select).
func (m refModel) ClickValueSet(s *refState, path Path, vs []rdf.Term) *refState {
	ext := m.restrictThroughPath(s.Ext, path, newRefSet(vs...))
	in := s.Int.Clone()
	in.Conds = append(in.Conds, Cond{Path: append(Path{}, path...), Values: append([]rdf.Term{}, vs...)})
	return &refState{Ext: ext, Int: in}
}

// ClickRange applies a literal comparison at the end of a 1-hop path: the
// range filter of Example 3 (§5.1).
func (m refModel) ClickRange(s *refState, path Path, op string, v rdf.Term) *refState {
	if len(path) != 1 {
		// Ranges over longer paths: restrict through the path by computing
		// matching end values first.
		end := m.ExpandPath(s, path)
		match := newRefSet()
		for _, vc := range end {
			if refCompareHolds(vc.Value, op, v) {
				match.Add(vc.Value)
			}
		}
		ext := m.restrictThroughPath(s.Ext, path, match)
		in := s.Int.Clone()
		in.Conds = append(in.Conds, Cond{Path: append(Path{}, path...), Op: op, Value: v})
		return &refState{Ext: ext, Int: in}
	}
	ext := m.RestrictOp(s.Ext, path[0].P, op, v)
	in := s.Int.Clone()
	in.Conds = append(in.Conds, Cond{Path: append(Path{}, path...), Op: op, Value: v})
	return &refState{Ext: ext, Int: in}
}

// ClickClass performs a class-based transition: the new extension is the
// current objects of type c; the intention records the class.
func (m refModel) ClickClass(s *refState, c rdf.Term) *refState {
	ext := m.RestrictClass(s.Ext, c)
	in := s.Int.Clone()
	in.Class = c
	return &refState{Ext: ext, Int: in}
}

// SwitchFocus pivots the focus to the other end of property step: the new
// extension holds the resources joined with the current entities, and the
// intention records the pivot. This is the "switch between entity types"
// capability of the base model (§5.2.1 differentiator iii) — e.g. moving
// from a set of laptops to the set of their manufacturers, which then has
// its own facets (size, origin, founder ...).
func (m refModel) SwitchFocus(s *refState, step PathStep) *refState {
	vals := m.Joins(s.Ext, step.P, step.Inverse)
	ext := newRefSet()
	for v := range vals {
		if v.IsResource() {
			ext.Add(v)
		}
	}
	base := s.Int.Clone()
	stepCopy := step
	return &refState{
		Ext: ext,
		Int: Intention{Base: &base, PivotStep: &stepCopy},
	}
}

// restrictThroughPath implements Eq. 5.1: starting from the selected end
// markers M'_k, restrict each intermediate marker set and finally the
// extension.
func (m refModel) restrictThroughPath(ext *refSet, path Path, endValues *refSet) *refSet {
	// Recompute the forward marker sets M_1..M_k.
	markers := make([]*refSet, len(path)+1)
	markers[0] = ext
	for i, step := range path {
		vals := m.Joins(markers[i], step.P, step.Inverse)
		next := newRefSet()
		for v := range vals {
			next.Add(v)
		}
		markers[i+1] = next
	}
	// Backward restriction: M'_k = endValues ∩ M_k; M'_i = Restrict(M_i,
	// p_{i+1} : M'_{i+1}).
	restricted := newRefSet()
	for _, v := range endValues.Items() {
		if markers[len(path)].Has(v) {
			restricted.Add(v)
		}
	}
	for i := len(path) - 1; i >= 0; i-- {
		restricted = m.RestrictSet(markers[i], path[i].P, path[i].Inverse, restricted)
	}
	return restricted
}

// NumericBuckets partitions the numeric values of facet p over the state's
// extension into n equal-width buckets with counts — the data behind the
// range-filter form of Example 3 (§5.1). Entities with several values count
// once per distinct bucket. Returns nil when fewer than two distinct
// numeric values exist (a plain value facet serves better then).
func (m refModel) NumericBuckets(s *refState, p rdf.Term, n int) []Bucket {
	if n <= 0 {
		n = 5
	}
	type ev struct {
		entity rdf.Term
		value  float64
	}
	var pairs []ev
	lo, hi := math.Inf(1), math.Inf(-1)
	distinct := map[float64]struct{}{}
	m.G.Match(rdf.Any, p, rdf.Any, func(t rdf.Triple) bool {
		if !s.Ext.Has(t.S) {
			return true
		}
		v, ok := t.O.Float()
		if !ok {
			return true
		}
		pairs = append(pairs, ev{t.S, v})
		distinct[v] = struct{}{}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
		return true
	})
	if len(distinct) < 2 {
		return nil
	}
	width := (hi - lo) / float64(n)
	buckets := make([]Bucket, n)
	for i := range buckets {
		buckets[i] = Bucket{Lo: lo + float64(i)*width, Hi: lo + float64(i+1)*width}
	}
	buckets[n-1].Hi = hi
	// Count each (entity, bucket) pair once.
	seen := map[[2]interface{}]struct{}{}
	for _, pr := range pairs {
		idx := int((pr.value - lo) / width)
		if idx >= n {
			idx = n - 1
		}
		key := [2]interface{}{pr.entity, idx}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		buckets[idx].Count++
	}
	return buckets
}

// ClickBucket restricts the state to entities whose p-value falls in the
// bucket: two range conditions in one transition.
func (m refModel) ClickBucket(s *refState, p rdf.Term, b Bucket, last bool) *refState {
	lo := rdf.NewDecimal(b.Lo)
	hi := rdf.NewDecimal(b.Hi)
	s2 := m.ClickRange(s, Path{{P: p}}, ">=", lo)
	if last {
		return m.ClickRange(s2, Path{{P: p}}, "<=", hi)
	}
	return m.ClickRange(s2, Path{{P: p}}, "<", hi)
}

// DateBuckets groups the date values of facet p by year, returning
// (year, count) pairs sorted by year — the calendar drill-down the
// transform button's YEAR/MONTH decomposition supports.
func (m refModel) DateBuckets(s *refState, p rdf.Term) []ValueCount {
	counts := map[int]int{}
	seen := map[[2]interface{}]struct{}{}
	m.G.Match(rdf.Any, p, rdf.Any, func(t rdf.Triple) bool {
		if !s.Ext.Has(t.S) {
			return true
		}
		tm, ok := t.O.Time()
		if !ok {
			return true
		}
		key := [2]interface{}{t.S, tm.Year()}
		if _, dup := seen[key]; dup {
			return true
		}
		seen[key] = struct{}{}
		counts[tm.Year()]++
		return true
	})
	years := make([]int, 0, len(counts))
	for y := range counts {
		years = append(years, y)
	}
	sort.Ints(years)
	out := make([]ValueCount, len(years))
	for i, y := range years {
		out[i] = ValueCount{Value: rdf.NewInteger(int64(y)), Count: counts[y]}
	}
	return out
}
