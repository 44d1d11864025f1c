package facet

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"

	"rdfanalytics/internal/par"
	"rdfanalytics/internal/rdf"
)

// TermSet is an extension: a set of resources with deterministic iteration.
// Members the graph knows are held as dictionary IDs (the model's operators
// scan and intersect on integers); terms are materialized by Items only. A
// set built by NewTermSet has no graph and holds every member as a term.
type TermSet struct {
	g   *rdf.Graph // whose dictionary ids refers to; nil for a free-standing set
	ids idSet
	// free holds the members g has no ID for (all of them when g is nil):
	// they are counted and listed, and can never join.
	free  map[rdf.Term]struct{}
	items []rdf.Term // sorted lazily; nil when stale
}

// NewTermSet builds a free-standing set from the given terms.
func NewTermSet(ts ...rdf.Term) *TermSet {
	s := &TermSet{}
	for _, t := range ts {
		s.Add(t)
	}
	return s
}

// Add inserts t.
func (s *TermSet) Add(t rdf.Term) {
	if _, ok := s.free[t]; ok {
		return
	}
	s.items = nil
	if s.g != nil {
		if id, ok := s.g.TermID(t); ok {
			s.ids.add(id)
			return
		}
	}
	if s.free == nil {
		s.free = map[rdf.Term]struct{}{}
	}
	s.free[t] = struct{}{}
}

// Has reports membership.
func (s *TermSet) Has(t rdf.Term) bool {
	if _, ok := s.free[t]; ok {
		return true
	}
	if s.g == nil {
		return false
	}
	id, ok := s.g.TermID(t)
	return ok && s.ids.has(id)
}

// Len returns the cardinality.
func (s *TermSet) Len() int { return s.ids.n + len(s.free) }

// Items returns the members, sorted.
func (s *TermSet) Items() []rdf.Term {
	if s.items == nil {
		s.items = []rdf.Term{}
		if s.ids.n > 0 {
			s.items = s.g.TermsOf(s.ids.appendTo(make([]rdf.ID, 0, s.ids.n)))
		}
		for t := range s.free {
			s.items = append(s.items, t)
		}
		rdf.SortTerms(s.items)
	}
	return s.items
}

// idSet is a set of dictionary IDs: a bitmap over the dense ID space, so
// membership under an index scan is one shift and mask, and a set costs a
// bit per term of the graph however many members it has.
type idSet struct {
	words []uint64
	n     int
}

func (s *idSet) add(id rdf.ID) {
	w, bit := int(id>>6), uint64(1)<<(id&63)
	if w >= len(s.words) {
		s.words = append(s.words, make([]uint64, w+1-len(s.words))...)
	}
	if s.words[w]&bit == 0 {
		s.words[w] |= bit
		s.n++
	}
}

func (s *idSet) has(id rdf.ID) bool {
	w := int(id >> 6)
	return w < len(s.words) && s.words[w]&(1<<(id&63)) != 0
}

// appendTo appends the members to dst in ascending order.
func (s *idSet) appendTo(dst []rdf.ID) []rdf.ID {
	for w, word := range s.words {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, rdf.ID(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// State is one interaction state: an extension (the displayed objects) and
// an intention (the query whose answer the extension is).
type State struct {
	Ext *TermSet
	Int Intention
}

// Model is the faceted-search model over one graph. It offers the state
// space primitives of §5.3: Restrict, Joins, class/property transitions and
// path expansion. Every operator works on dictionary IDs — index scans with
// MatchIDs, integer set membership — and materializes terms only for what
// it returns.
type Model struct {
	G      *rdf.Graph
	Schema *rdf.Schema
	// MaxValues caps the number of values listed per facet (0 = unlimited);
	// the GUI shows the top values and a "more" affordance.
	MaxValues int
	// Parallelism bounds the workers used for transition-marker counting
	// (PropertyFacets): 0 means GOMAXPROCS, 1 forces sequential. Output is
	// identical at every setting.
	Parallelism int
}

// NewModel builds a model over g. The graph should already be materialized
// (rdf.Materialize) so that inst() honors subclass/subproperty semantics —
// the closure C(K) of §5.3.1.
func NewModel(g *rdf.Graph) *Model {
	return &Model{G: g, Schema: rdf.SchemaOf(g)}
}

// newSet returns an empty set over the model's dictionary, sized so that
// adding any term the graph holds today does not regrow it.
func (m *Model) newSet() *TermSet {
	return &TermSet{g: m.G, ids: m.newIDSet()}
}

func (m *Model) newIDSet() idSet {
	return idSet{words: make([]uint64, m.G.TermCount()>>6+1)}
}

// idsOf returns the members of e as IDs of the model's dictionary. For a
// set the model built — every State's extension — that is the set's own
// bitmap; a free-standing set is resolved term by term. Terms the graph had
// not seen when the set was built cannot join and are dropped.
func (m *Model) idsOf(e *TermSet) *idSet {
	if e.g == m.G {
		return &e.ids
	}
	ids := m.newIDSet()
	for _, t := range e.Items() {
		if id, ok := m.G.TermID(t); ok {
			ids.add(id)
		}
	}
	return &ids
}

// Start returns the initial state s0: the extension holds every resource
// that appears as a subject (the named individuals of the dataset) and the
// intention is unrestricted.
func (m *Model) Start() *State {
	ext := m.newSet()
	ids := m.G.SubjectIDs()
	for i, t := range m.G.TermsOf(ids) {
		if t.IsResource() && !m.isSchemaEntity(t) {
			ext.ids.add(ids[i])
		}
	}
	return &State{Ext: ext}
}

// isSchemaEntity filters classes and properties out of the object list.
func (m *Model) isSchemaEntity(t rdf.Term) bool {
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
func (m *Model) StartFrom(results []rdf.Term) *State {
	ext := m.newSet()
	for _, t := range results {
		ext.Add(t)
	}
	return &State{Ext: ext, Int: Intention{Seed: append([]rdf.Term{}, results...)}}
}

// Restrict implements Restrict(E, p:v) of §5.3.1.
func (m *Model) Restrict(e *TermSet, p rdf.Term, inverse bool, v rdf.Term) *TermSet {
	out := m.newSet()
	pid, okP := m.G.TermID(p)
	vid, okV := m.G.TermID(v)
	if okP && okV {
		m.restrictInto(&out.ids, m.idsOf(e), pid, inverse, vid)
	}
	return out
}

// restrictInto adds to out the members of e that p links with v: e' survives
// if (e', p, v) holds — or (v, p, e') when inverse.
func (m *Model) restrictInto(out, e *idSet, pid rdf.ID, inverse bool, vid rdf.ID) {
	if inverse {
		m.G.MatchIDs(vid, pid, 0, func(_, _, o rdf.ID) bool {
			if e.has(o) {
				out.add(o)
			}
			return true
		})
		return
	}
	m.G.MatchIDs(0, pid, vid, func(s, _, _ rdf.ID) bool {
		if e.has(s) {
			out.add(s)
		}
		return true
	})
}

// RestrictSet implements Restrict(E, p:vset).
func (m *Model) RestrictSet(e *TermSet, p rdf.Term, inverse bool, vset *TermSet) *TermSet {
	out := m.newSet()
	if pid, ok := m.G.TermID(p); ok {
		eIDs := m.idsOf(e)
		for _, vid := range m.idsOf(vset).appendTo(nil) {
			m.restrictInto(&out.ids, eIDs, pid, inverse, vid)
		}
	}
	return out
}

// RestrictClass implements Restrict(E, c).
func (m *Model) RestrictClass(e *TermSet, c rdf.Term) *TermSet {
	return m.Restrict(e, rdf.NewIRI(rdf.RDFType), false, c)
}

// valueRuns is one scan of a predicate's index restricted to an extension:
// the distinct objects carried by extension members, each materialized
// once, with the members carrying it. A literal's number or date is then
// parsed once per distinct value, not once per triple.
type valueRuns struct {
	objects  []rdf.Term
	starts   []int // subjects[starts[i]:starts[i+1]] carry objects[i]
	subjects []rdf.ID
}

func (m *Model) valueRuns(e *idSet, p rdf.Term) valueRuns {
	var r valueRuns
	pid, ok := m.G.TermID(p)
	if !ok {
		return r
	}
	// A predicate scan yields each object's subjects as one run (MatchIDs
	// walks the POS index object by object).
	var objs []rdf.ID
	m.G.MatchIDs(0, pid, 0, func(s, _, o rdf.ID) bool {
		if !e.has(s) {
			return true
		}
		if n := len(objs); n == 0 || objs[n-1] != o {
			objs = append(objs, o)
			r.starts = append(r.starts, len(r.subjects))
		}
		r.subjects = append(r.subjects, s)
		return true
	})
	r.objects = m.G.TermsOf(objs)
	r.starts = append(r.starts, len(r.subjects))
	return r
}

// run returns the extension members carrying objects[i].
func (r valueRuns) run(i int) []rdf.ID { return r.subjects[r.starts[i]:r.starts[i+1]] }

// RestrictOp filters e by a literal comparison at the end of a single hop:
// the range-filter button of Example 3.
func (m *Model) RestrictOp(e *TermSet, p rdf.Term, op string, v rdf.Term) *TermSet {
	out := m.newSet()
	r := m.valueRuns(m.idsOf(e), p)
	for i, o := range r.objects {
		if compareHolds(o, op, v) {
			for _, s := range r.run(i) {
				out.ids.add(s)
			}
		}
	}
	return out
}

func compareHolds(a rdf.Term, op string, b rdf.Term) bool {
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

// Joins implements Joins(E, p) of §5.3.1: the values linked with the
// elements of E via p, with the count of E-members carrying each value.
func (m *Model) Joins(e *TermSet, p rdf.Term, inverse bool) map[rdf.Term]int {
	pid, ok := m.G.TermID(p)
	if !ok {
		return map[rdf.Term]int{}
	}
	counts := m.joinCounts(m.idsOf(e), pid, inverse)
	out := make(map[rdf.Term]int, len(counts))
	for i, t := range m.G.TermsOf(countIDs(counts)) {
		out[t] = counts[i].n
	}
	return out
}

// idCount is one joined value, still an ID, with its count.
type idCount struct {
	id rdf.ID
	n  int
}

func countIDs(counts []idCount) []rdf.ID {
	ids := make([]rdf.ID, len(counts))
	for i, c := range counts {
		ids[i] = c.id
	}
	return ids
}

// joinCounts is the ID-space core of Joins. Triples are set-unique per
// predicate, so counting needs no dedup pass. Forward, a predicate scan
// yields each object's subjects as one run (MatchIDs walks the POS index
// object by object), so the counts are run lengths; inverse, the joined
// values are subjects scattered over the scan and are tallied in a map (in
// no particular order — every caller sorts or only collects).
func (m *Model) joinCounts(e *idSet, pid rdf.ID, inverse bool) []idCount {
	var out []idCount
	if !inverse {
		m.G.MatchIDs(0, pid, 0, func(s, _, o rdf.ID) bool {
			if !e.has(s) {
				return true
			}
			if n := len(out); n > 0 && out[n-1].id == o {
				out[n-1].n++
			} else {
				out = append(out, idCount{o, 1})
			}
			return true
		})
		return out
	}
	counts := map[rdf.ID]int{}
	m.G.MatchIDs(0, pid, 0, func(s, _, o rdf.ID) bool {
		if e.has(o) {
			counts[s]++
		}
		return true
	})
	for id, n := range counts {
		out = append(out, idCount{id, n})
	}
	return out
}

// joined returns the values joinCounts found, as a set.
func (m *Model) joined(counts []idCount) *idSet {
	set := m.newIDSet()
	for _, c := range counts {
		set.add(c.id)
	}
	return &set
}

// ValueCount is one transition marker: a clickable value with its count.
type ValueCount struct {
	Value rdf.Term
	Count int
}

// sortValueCounts orders markers by descending count, then term order — the
// usual facet display order. Each value's ordering key is computed once.
func sortValueCounts(vcs []ValueCount) {
	type keyed struct {
		key   rdf.OrderKey
		count int
	}
	ks := make([]keyed, len(vcs))
	for i, vc := range vcs {
		ks[i] = keyed{vc.Value.OrderKey(), vc.Count}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if a.count != b.count {
			return cmp.Compare(b.count, a.count)
		}
		return a.key.Compare(b.key)
	})
	for i, k := range ks {
		vcs[i] = ValueCount{Value: k.key.Term(), Count: k.count}
	}
}

// markers materializes joined values as sorted transition markers (nil when
// there are none).
func (m *Model) markers(counts []idCount) []ValueCount {
	if len(counts) == 0 {
		return nil
	}
	out := make([]ValueCount, len(counts))
	for i, t := range m.G.TermsOf(countIDs(counts)) {
		out[i] = ValueCount{Value: t, Count: counts[i].n}
	}
	sortValueCounts(out)
	return out
}

// ClassNode is a node of the hierarchical class facet (Fig 5.4 a–b):
// a class with the count of current objects it covers and its direct
// subclasses under the reflexive-transitive reduction.
type ClassNode struct {
	Class    rdf.Term
	Count    int
	Children []ClassNode
}

// ClassFacet computes the class-based transition markers for s: the maximal
// classes with nonzero counts, hierarchically organized (§5.3.2, Alg. 5
// Part B). Classes covering no current object are pruned (query guidance:
// no click leads to an empty result).
func (m *Model) ClassFacet(s *State) []ClassNode {
	defer observeSince(classFacetSeconds, time.Now())
	e := m.idsOf(s.Ext)
	typeID, _ := m.G.TermID(rdf.NewIRI(rdf.RDFType))
	var build func(c rdf.Term) (ClassNode, bool)
	build = func(c rdf.Term) (ClassNode, bool) {
		node := ClassNode{Class: c}
		if cid, ok := m.G.TermID(c); ok && typeID != 0 {
			m.G.MatchIDs(0, typeID, cid, func(s, _, _ rdf.ID) bool {
				if e.has(s) {
					node.Count++
				}
				return true
			})
		}
		for _, sub := range m.Schema.DirectSubClasses(c) {
			if child, ok := build(sub); ok {
				node.Children = append(node.Children, child)
			}
		}
		return node, node.Count > 0 || len(node.Children) > 0
	}
	var out []ClassNode
	for _, c := range m.Schema.MaximalClasses() {
		if node, ok := build(c); ok {
			out = append(out, node)
		}
	}
	return out
}

// Facet is one property facet: the property, its direction, and its value
// markers with counts (Fig 5.4 c).
type Facet struct {
	P       rdf.Term
	Inverse bool
	Values  []ValueCount
}

// Total returns the number of E-members having the property (the count
// shown next to the facet name, "by manufacturer (2)").
func (f Facet) Total(m *Model, e *TermSet) int {
	pid, ok := m.G.TermID(f.P)
	if !ok {
		return 0
	}
	eIDs, having := m.idsOf(e), m.newIDSet()
	m.G.MatchIDs(0, pid, 0, func(s, _, o rdf.ID) bool {
		if f.Inverse {
			s = o
		}
		if eIDs.has(s) {
			having.add(s)
		}
		return true
	})
	return having.n
}

// PropertyFacets computes the property-based transition markers of s
// (Alg. 5 Part C): one facet per property applicable to the extension, each
// with its joined values and counts, in property order with a property's
// inverse facet after its forward one. Inverse facets are included when
// includeInverse is set (the model's Pr⁻¹). The per-property counting fans
// out across the worker pool (Model.Parallelism); results land in
// per-property slots, so output is identical at every parallelism level.
func (m *Model) PropertyFacets(s *State, includeInverse bool) []Facet {
	defer observeSince(propFacetsSeconds, time.Now())
	props := m.applicableProperties()
	e := m.idsOf(s.Ext)
	directions := []bool{false}
	if includeInverse {
		directions = append(directions, true)
	}
	slots := make([][]Facet, len(props))
	par.Do(len(props), par.Workers(m.Parallelism), func(i int) {
		pid, ok := m.G.TermID(props[i])
		if !ok {
			return
		}
		for _, inverse := range directions {
			if values := m.markers(m.joinCounts(e, pid, inverse)); values != nil {
				if m.MaxValues > 0 && len(values) > m.MaxValues {
					values = values[:m.MaxValues]
				}
				slots[i] = append(slots[i], Facet{P: props[i], Inverse: inverse, Values: values})
			}
		}
	})
	var out []Facet
	for _, fs := range slots {
		out = append(out, fs...)
	}
	return out
}

func (m *Model) applicableProperties() []rdf.Term {
	props := make([]rdf.Term, 0, len(m.Schema.Properties))
	for p := range m.Schema.Properties {
		props = append(props, p)
	}
	rdf.SortTerms(props)
	return props
}

// RankFacets orders facets by how much a click on them would tell the user:
// the Shannon entropy of the facet's value distribution over the extension,
// normalized by its coverage. High-entropy facets split the focus evenly
// (informative clicks); single-valued facets rank last. Classic faceted-UI
// ordering; the GUI shows the most useful facets first.
func RankFacets(m *Model, e *TermSet, facets []Facet) []Facet {
	type scored struct {
		f     Facet
		score float64
	}
	out := make([]scored, len(facets))
	for i, f := range facets {
		total := 0
		for _, vc := range f.Values {
			total += vc.Count
		}
		h := 0.0
		if total > 0 {
			for _, vc := range f.Values {
				p := float64(vc.Count) / float64(total)
				if p > 0 {
					h -= p * math.Log2(p)
				}
			}
		}
		coverage := float64(f.Total(m, e)) / float64(max(e.Len(), 1))
		out[i] = scored{f: f, score: h * coverage}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].score > out[j].score })
	ranked := make([]Facet, len(out))
	for i, s := range out {
		ranked[i] = s.f
	}
	return ranked
}

// ExpandPath computes the transition markers at the end of a successive
// property path p1…pk (§5.3.2, Fig 5.5): M_i = Joins(M_{i-1}, p_i) with
// M_0 = s.Ext; literals can be joined through and grouped too. It returns
// the markers of the last step, or nil when the sequence is not successive
// (produces no values).
func (m *Model) ExpandPath(s *State, path Path) []ValueCount {
	defer observeSince(expandPathSeconds, time.Now())
	cur := m.idsOf(s.Ext)
	var counts []idCount
	for _, step := range path {
		pid, ok := m.G.TermID(step.P)
		if !ok {
			return nil
		}
		if counts = m.joinCounts(cur, pid, step.Inverse); len(counts) == 0 {
			return nil
		}
		cur = m.joined(counts)
	}
	return m.markers(counts)
}

// ClickValue performs the transition of selecting value v at the end of
// path (Eq. 5.1): the extension is restricted backwards through the path
// and the intention gains the corresponding condition.
func (m *Model) ClickValue(s *State, path Path, v rdf.Term) *State {
	ext := m.restrictThroughPath(s.Ext, path, []rdf.Term{v})
	in := s.Int.Clone()
	in.Conds = append(in.Conds, Cond{Path: append(Path{}, path...), Value: v})
	return &State{Ext: ext, Int: in}
}

// ClickValueSet selects a set of values at the path end (multi-select).
func (m *Model) ClickValueSet(s *State, path Path, vs []rdf.Term) *State {
	ext := m.restrictThroughPath(s.Ext, path, vs)
	in := s.Int.Clone()
	in.Conds = append(in.Conds, Cond{Path: append(Path{}, path...), Values: append([]rdf.Term{}, vs...)})
	return &State{Ext: ext, Int: in}
}

// ClickRange applies a literal comparison at the end of a path: the range
// filter of Example 3 (§5.1).
func (m *Model) ClickRange(s *State, path Path, op string, v rdf.Term) *State {
	var ext *TermSet
	if len(path) == 1 {
		ext = m.RestrictOp(s.Ext, path[0].P, op, v)
	} else {
		// Ranges over longer paths: restrict through the path by computing
		// matching end values first.
		var match []rdf.Term
		for _, vc := range m.ExpandPath(s, path) {
			if compareHolds(vc.Value, op, v) {
				match = append(match, vc.Value)
			}
		}
		ext = m.restrictThroughPath(s.Ext, path, match)
	}
	in := s.Int.Clone()
	in.Conds = append(in.Conds, Cond{Path: append(Path{}, path...), Op: op, Value: v})
	return &State{Ext: ext, Int: in}
}

// ClickClass performs a class-based transition: the new extension is the
// current objects of type c; the intention records the class.
func (m *Model) ClickClass(s *State, c rdf.Term) *State {
	ext := m.RestrictClass(s.Ext, c)
	in := s.Int.Clone()
	in.Class = c
	return &State{Ext: ext, Int: in}
}

// SwitchFocus pivots the focus to the other end of property step: the new
// extension holds the resources joined with the current entities, and the
// intention records the pivot. This is the "switch between entity types"
// capability of the base model (§5.2.1 differentiator iii) — e.g. moving
// from a set of laptops to the set of their manufacturers, which then has
// its own facets (size, origin, founder ...).
func (m *Model) SwitchFocus(s *State, step PathStep) *State {
	ext := m.newSet()
	if pid, ok := m.G.TermID(step.P); ok {
		ids := countIDs(m.joinCounts(m.idsOf(s.Ext), pid, step.Inverse))
		for i, v := range m.G.TermsOf(ids) {
			if v.IsResource() {
				ext.ids.add(ids[i])
			}
		}
	}
	base := s.Int.Clone()
	stepCopy := step
	return &State{
		Ext: ext,
		Int: Intention{Base: &base, PivotStep: &stepCopy},
	}
}

// restrictThroughPath implements Eq. 5.1: starting from the selected end
// markers M'_k, restrict each intermediate marker set and finally the
// extension.
func (m *Model) restrictThroughPath(ext *TermSet, path Path, endValues []rdf.Term) *TermSet {
	out := m.newSet()
	// Recompute the forward marker sets M_1..M_k.
	pids := make([]rdf.ID, len(path))
	markers := make([]*idSet, len(path)+1)
	markers[0] = m.idsOf(ext)
	for i, step := range path {
		var ok bool
		if pids[i], ok = m.G.TermID(step.P); !ok {
			return out
		}
		markers[i+1] = m.joined(m.joinCounts(markers[i], pids[i], step.Inverse))
	}
	// Backward restriction: M'_k = endValues ∩ M_k; M'_i = Restrict(M_i,
	// p_{i+1} : M'_{i+1}).
	for _, v := range endValues {
		if id, ok := m.G.TermID(v); ok && markers[len(path)].has(id) {
			out.ids.add(id)
		}
	}
	for i := len(path) - 1; i >= 0; i-- {
		selected := out.ids.appendTo(nil)
		out.ids = m.newIDSet()
		for _, vid := range selected {
			m.restrictInto(&out.ids, markers[i], pids[i], path[i].Inverse, vid)
		}
	}
	return out
}
