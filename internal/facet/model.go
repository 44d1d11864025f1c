package facet

import (
	"cmp"
	"fmt"
	"iter"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"time"

	"rdfanalytics/internal/par"
	"rdfanalytics/internal/rdf"
)

// TermSet is an extension: a set of resources with deterministic iteration.
// Members the graph knows are held as dictionary IDs (the model's operators
// scan and intersect on integers); terms are materialized by Items and
// First only. A set built by NewTermSet has no graph and holds every member
// as a term.
type TermSet struct {
	g   *rdf.Graph // whose dictionary ids refers to; nil for a free-standing set
	ids idSet
	// free holds the members g has no ID for (all of them when g is nil):
	// they are counted and listed, and can never join.
	free map[rdf.Term]struct{}
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
	items := []rdf.Term{}
	if s.ids.n > 0 {
		items = s.g.TermsOf(slices.AppendSeq(make([]rdf.ID, 0, s.ids.n), s.ids.members()))
	}
	for t := range s.free {
		items = append(items, t)
	}
	rdf.SortTerms(items)
	return items
}

// First returns Items()[:k], or all of Items when k exceeds Len, building
// no term for the other members (rdf.TermView.Least). A set holding
// members with no ID — a free-standing one included — falls back on Items.
func (s *TermSet) First(k int) []rdf.Term {
	if len(s.free) > 0 || s.g == nil {
		items := s.Items()
		return items[:min(max(k, 0), len(items))]
	}
	view := s.g.TermView()
	ids := view.Least(s.ids.members(), k)
	out := make([]rdf.Term, len(ids))
	for i, id := range ids {
		out[i] = view.Term(id)
	}
	return out
}

// IDs returns the members held as IDs of the set's graph, ascending: every
// member of a set a Model built, none of a free-standing one.
func (s *TermSet) IDs() []rdf.ID {
	return slices.AppendSeq(make([]rdf.ID, 0, s.ids.n), s.ids.members())
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

// members yields the members in ascending order.
func (s *idSet) members() iter.Seq[rdf.ID] {
	return func(yield func(rdf.ID) bool) {
		for w, word := range s.words {
			for ; word != 0; word &= word - 1 {
				if !yield(rdf.ID(w<<6 + bits.TrailingZeros64(word))) {
					return
				}
			}
		}
	}
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
// intention is unrestricted. Classes and properties are left out, by ID; a
// subject's kind is read from the dictionary's shape column. StartPatterns
// renders the same rule.
func (m *Model) Start() *State {
	schema := m.newIDSet()
	for _, ts := range []map[rdf.Term]struct{}{m.Schema.Classes, m.Schema.Properties} {
		for t := range ts {
			if id, ok := m.G.TermID(t); ok {
				schema.add(id)
			}
		}
	}
	ext := m.newSet()
	ids := m.G.SubjectIDs()
	view := m.G.TermView()
	for _, id := range ids {
		if view.Shape(id).IsResource() && !schema.has(id) {
			ext.ids.add(id)
		}
	}
	return &State{Ext: ext}
}

// StartPatterns renders Start's rule as graph patterns rooted at root: the
// subjects that are no literal, no class and no property of the schema, as
// rdf.SchemaOf finds them. A class is a subject typed by one of
// rdf.ClassClasses, the subject of an rdfs:subClassOf edge, or an IRI
// outside rdf.MetaClasses that is a type or the object of such an edge; a
// property is a subject typed by one of rdf.PropertyClasses, either end of
// an rdfs:subPropertyOf edge, or a predicate outside rdf.MetaProperties. An
// edge from a term to itself counts for neither. It is the intention of the
// start state, whose Intention renders nothing.
func StartPatterns(root string) string {
	v := func(name string) string { return root + "_" + name }
	in := func(iris ...[]string) string {
		var out []string
		for _, list := range iris {
			for _, iri := range list {
				out = append(out, "<"+iri+">")
			}
		}
		return strings.Join(out, ", ")
	}
	c, s := v("c"), v("s")
	var sb strings.Builder
	// Each subject once, so that each rule below is tested once a subject.
	fmt.Fprintf(&sb, "  { SELECT DISTINCT %s WHERE { %s %s %s } }\n", root, root, v("p"), v("o"))
	fmt.Fprintf(&sb, "  FILTER(!isLiteral(%s))\n", root)
	fmt.Fprintf(&sb, "  FILTER NOT EXISTS { %s <%s> %s FILTER(%s IN (%s)) }\n",
		root, rdf.RDFType, c, c, in(rdf.ClassClasses, rdf.PropertyClasses))
	fmt.Fprintf(&sb, "  FILTER NOT EXISTS { { %s <%s> %s } UNION { %s <%s> %s } UNION { %s <%s> %s } FILTER(!sameTerm(%s, %s)) }\n",
		root, rdf.RDFSSubClassOf, c, root, rdf.RDFSSubPropertyOf, c, c, rdf.RDFSSubPropertyOf, root, c, root)
	fmt.Fprintf(&sb, "  FILTER NOT EXISTS { { %s <%s> %s } UNION { %s <%s> %s FILTER(!sameTerm(%s, %s)) } FILTER(isIRI(%s) && %s NOT IN (%s)) }\n",
		c, rdf.RDFType, root, c, rdf.RDFSSubClassOf, root, c, root, root, root, in(rdf.MetaClasses))
	fmt.Fprintf(&sb, "  FILTER NOT EXISTS { %s %s %s FILTER(%s NOT IN (%s)) }\n",
		s, root, c, root, in(rdf.MetaProperties))
	return sb.String()
}

// StartFrom returns a state whose extension is an externally produced
// result set (e.g. a keyword query), per §5.4.1: the results the graph has
// an ID for, in the extension and in the intention's VALUES alike. A term
// the graph never held names no resource; when no result names one, the
// results seed nothing and the state is s0.
func (m *Model) StartFrom(results []rdf.Term) *State {
	ext := m.newSet()
	var seed []rdf.Term
	for _, t := range results {
		if id, ok := m.G.TermID(t); ok && !ext.ids.has(id) {
			ext.ids.add(id)
			seed = append(seed, t)
		}
	}
	if len(seed) == 0 {
		return m.Start()
	}
	return &State{Ext: ext, Int: Intention{Seed: seed}}
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
		for vid := range m.idsOf(vset).members() {
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
// the distinct objects carried by extension members, with the members
// carrying each. An object is decoded through the view taken after the
// scan, so a literal's number or date is parsed once per distinct value,
// not once per triple, and no term is kept.
type valueRuns struct {
	view     rdf.TermView
	objects  []rdf.ID
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
	// walks the POS index object by object). Most members have at most one
	// value of a property, which sizes the subjects.
	r.subjects = make([]rdf.ID, 0, min(e.n, m.G.MatchCountIDs(0, pid, 0)))
	m.G.MatchIDs(0, pid, 0, func(s, _, o rdf.ID) bool {
		if !e.has(s) {
			return true
		}
		if n := len(r.objects); n == 0 || r.objects[n-1] != o {
			r.objects = append(r.objects, o)
			r.starts = append(r.starts, len(r.subjects))
		}
		r.subjects = append(r.subjects, s)
		return true
	})
	r.view = m.G.TermView()
	r.starts = append(r.starts, len(r.subjects))
	return r
}

// object returns the term of objects[i].
func (r valueRuns) object(i int) rdf.Term { return r.view.Term(r.objects[i]) }

// run returns the extension members carrying objects[i].
func (r valueRuns) run(i int) []rdf.ID { return r.subjects[r.starts[i]:r.starts[i+1]] }

// RestrictOp filters e by a literal comparison at the end of a single hop:
// the range-filter button of Example 3.
func (m *Model) RestrictOp(e *TermSet, p rdf.Term, op string, v rdf.Term) *TermSet {
	out := m.newSet()
	r := m.valueRuns(m.idsOf(e), p)
	for i := range r.objects {
		if compareHolds(r.object(i), op, v) {
			for _, s := range r.run(i) {
				out.ids.add(s)
			}
		}
	}
	return out
}

// compareHolds reports whether a op b holds: term equality for = and !=,
// an order in a shared value space (numbers, or dates and date-times on the
// time line — not a plain string that reads like one) for the others.
func compareHolds(a rdf.Term, op string, b rdf.Term) bool {
	switch op {
	case "", "=":
		return a == b
	case "!=":
		return a != b
	}
	c, ok := rdf.CompareValues(a, b)
	switch op {
	case "<":
		return ok && c < 0
	case "<=":
		return ok && c <= 0
	case ">":
		return ok && c > 0
	case ">=":
		return ok && c >= 0
	}
	return false
}

// Joins implements Joins(E, p) of §5.3.1: the values linked with the
// elements of E via p, with the count of E-members carrying each value.
func (m *Model) Joins(e *TermSet, p rdf.Term, inverse bool) map[rdf.Term]int {
	out := map[rdf.Term]int{}
	if pid, ok := m.G.TermID(p); ok {
		for _, vc := range m.Decode(m.joinCounts(&counter{}, m.idsOf(e), pid, inverse)) {
			out[vc.Value] = vc.Count
		}
	}
	return out
}

// ValueCount is one transition marker, 8 bytes: a clickable value as an ID
// of the model's dictionary, with its count.
type ValueCount struct {
	ID    rdf.ID
	Count int32
}

// TermCount is a value decoded to its term, with its count.
type TermCount struct {
	Value rdf.Term
	Count int
}

// Decode returns markers with their values as terms (nil for none): where a
// marker becomes a term, but for the server's body writer.
func (m *Model) Decode(vcs []ValueCount) []TermCount {
	if len(vcs) == 0 {
		return nil
	}
	view := m.G.TermView()
	out := make([]TermCount, len(vcs))
	for i, vc := range vcs {
		out[i] = TermCount{view.Term(vc.ID), int(vc.Count)}
	}
	return out
}

// counter is the scratch a task's joins reuse: the last join's runs, an
// inverse scan's subjects, sort keys. It keeps nothing else, so it pools.
type counter struct {
	runs []ValueCount
	subj []rdf.ID
	keys []rdf.IDKey
}

var counters = sync.Pool{New: func() any { return new(counter) }}

// joinCounts is the ID-space core of Joins: the values p joins with e, in
// ascending ID order, in c's runs (valid until c counts again). Triples are
// set-unique per predicate, so counting needs no dedup pass. Forward, a
// predicate scan yields each object's subjects as one run (MatchIDs walks
// the POS index object by object), so the counts are run lengths; inverse,
// the joined subjects are sorted first.
func (m *Model) joinCounts(c *counter, e *idSet, pid rdf.ID, inverse bool) []ValueCount {
	c.runs, c.subj = c.runs[:0], c.subj[:0]
	m.G.MatchIDs(0, pid, 0, func(s, _, o rdf.ID) bool {
		switch {
		case !inverse && e.has(s):
			c.runs = addRun(c.runs, o)
		case inverse && e.has(o):
			c.subj = append(c.subj, s)
		}
		return true
	})
	slices.Sort(c.subj)
	for _, s := range c.subj {
		c.runs = addRun(c.runs, s)
	}
	return c.runs
}

func addRun(runs []ValueCount, id rdf.ID) []ValueCount {
	if n := len(runs); n > 0 && runs[n-1].ID == id {
		runs[n-1].Count++
		return runs
	}
	return append(runs, ValueCount{id, 1})
}

// join returns the values p links with the members of e, as a set: a step
// M_i of a path, without the counts.
func (m *Model) join(e *idSet, pid rdf.ID, inverse bool) *idSet {
	out := m.newIDSet()
	m.G.MatchIDs(0, pid, 0, func(s, _, o rdf.ID) bool {
		if inverse {
			s, o = o, s
		}
		if e.has(s) {
			out.add(o)
		}
		return true
	})
	return &out
}

// markers returns joined values as transition markers in display order —
// descending count, then term order — the first limit of them when limit
// is positive, in a slice of exactly that size (nil when there are none).
// counts — c's runs — is sorted in place by count; each run of equal counts
// that reaches the first limit is then ordered by the values' order keys
// (kind, number or instant, lexical form read through the view), computed
// once per value into c.
func (m *Model) markers(c *counter, counts []ValueCount, limit int) []ValueCount {
	if len(counts) == 0 {
		return nil
	}
	view := m.G.TermView()
	if limit <= 0 || limit > len(counts) {
		limit = len(counts)
	}
	slices.SortFunc(counts, func(a, b ValueCount) int { return cmp.Compare(b.Count, a.Count) })
	for i, j := 0, 0; i < limit; i = j {
		for j = i + 1; j < len(counts) && counts[j].Count == counts[i].Count; j++ {
		}
		if cap(c.keys) < j-i {
			c.keys = make([]rdf.IDKey, 0, j-i)
		}
		c.keys = c.keys[:0]
		for _, vc := range counts[i:j] {
			c.keys = append(c.keys, view.Key(vc.ID))
		}
		slices.SortFunc(c.keys, view.Compare)
		for k, key := range c.keys {
			counts[i+k].ID = key.ID
		}
	}
	out := make([]ValueCount, limit)
	copy(out, counts)
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
		c := counters.Get().(*counter)
		defer counters.Put(c)
		for _, inverse := range directions {
			if values := m.markers(c, m.joinCounts(c, e, pid, inverse), m.MaxValues); values != nil {
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

// ExpandPath computes the transition markers at the end of a successive
// property path p1…pk (§5.3.2, Fig 5.5): M_i = Joins(M_{i-1}, p_i) with
// M_0 = s.Ext; literals can be joined through and grouped too. It returns
// the markers of the last step, or nil when the sequence is not successive
// (produces no values).
func (m *Model) ExpandPath(s *State, path Path) []ValueCount {
	defer observeSince(expandPathSeconds, time.Now())
	c := counters.Get().(*counter)
	defer counters.Put(c)
	return m.markers(c, m.endCounts(c, s, path), 0)
}

// endCounts returns the values path's last step joins with their counts,
// as joinCounts does, or nil when a step joins nothing.
func (m *Model) endCounts(c *counter, s *State, path Path) []ValueCount {
	cur := m.idsOf(s.Ext)
	for i, step := range path {
		pid, ok := m.G.TermID(step.P)
		if !ok || cur.n == 0 {
			return nil
		}
		if i == len(path)-1 {
			return m.joinCounts(c, cur, pid, step.Inverse)
		}
		cur = m.join(cur, pid, step.Inverse)
	}
	return nil
}

// ClickValue performs the transition of selecting value v at the end of
// path (Eq. 5.1): the extension is restricted backwards through the path
// and the intention gains the corresponding condition.
func (m *Model) ClickValue(s *State, path Path, v rdf.Term) *State {
	ext := m.restrictThroughPath(s.Ext, path, m.valueIDs([]rdf.Term{v}))
	in := s.Int.Clone()
	in.Conds = append(in.Conds, Cond{Path: append(Path{}, path...), Value: v})
	return &State{Ext: ext, Int: in}
}

// ClickValueSet selects a set of values at the path end (multi-select).
func (m *Model) ClickValueSet(s *State, path Path, vs []rdf.Term) *State {
	ext := m.restrictThroughPath(s.Ext, path, m.valueIDs(vs))
	in := s.Int.Clone()
	in.Conds = append(in.Conds, Cond{Path: append(Path{}, path...), Values: append([]rdf.Term{}, vs...)})
	return &State{Ext: ext, Int: in}
}

// valueIDs returns the IDs the dictionary holds for the clicked values;
// a value it has never seen matches nothing and is left out.
func (m *Model) valueIDs(vs []rdf.Term) []rdf.ID {
	ids := make([]rdf.ID, 0, len(vs))
	for _, v := range vs {
		if id, ok := m.G.TermID(v); ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// ClickRange applies a literal comparison at the end of a path: the range
// filter of Example 3 (§5.1).
func (m *Model) ClickRange(s *State, path Path, op string, v rdf.Term) *State {
	var ext *TermSet
	if len(path) == 1 && !path[0].Inverse {
		ext = m.RestrictOp(s.Ext, path[0].P, op, v)
	} else {
		// Ranges over longer or inverse paths: restrict through the path
		// from the end values that pass the comparison, tested in ID order.
		c := counters.Get().(*counter)
		defer counters.Put(c)
		counts := m.endCounts(c, s, path)
		view := m.G.TermView()
		var match []rdf.ID
		for _, vc := range counts {
			if compareHolds(view.Term(vc.ID), op, v) {
				match = append(match, vc.ID)
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
//
// The intention keeps one class: c replaces the class it has when every
// instance of c is one of that class, and is a condition on rdf:type beside
// it otherwise — clicking Product in a Laptop state, say, keeps the laptops,
// which the class Product alone would not say.
func (m *Model) ClickClass(s *State, c rdf.Term) *State {
	ext := m.RestrictClass(s.Ext, c)
	in := s.Int.Clone()
	if in.Class.IsZero() || m.narrows(c, in.Class) {
		in.Class = c
	} else {
		in.Conds = append(in.Conds, Cond{Path: Path{{P: rdf.NewIRI(rdf.RDFType)}}, Value: c})
	}
	return &State{Ext: ext, Int: in}
}

// narrows reports whether every instance of class c is an instance of class
// old.
func (m *Model) narrows(c, old rdf.Term) bool {
	typ, okT := m.G.TermID(rdf.NewIRI(rdf.RDFType))
	cid, okC := m.G.TermID(c)
	if !okT || !okC {
		return true // c has no instances
	}
	oid, okO := m.G.TermID(old)
	all := true
	m.G.MatchIDs(0, typ, cid, func(s, _, _ rdf.ID) bool {
		all = okO && m.G.MatchCountIDs(s, typ, oid) > 0
		return all
	})
	return all
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
		joined := m.join(m.idsOf(s.Ext), pid, step.Inverse)
		view := m.G.TermView()
		for id := range joined.members() {
			if view.Shape(id).IsResource() {
				ext.ids.add(id)
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
func (m *Model) restrictThroughPath(ext *TermSet, path Path, endValues []rdf.ID) *TermSet {
	out := m.newSet()
	// Recompute the forward marker sets M_0..M_{k-1}.
	pids := make([]rdf.ID, len(path))
	markers := []*idSet{m.idsOf(ext)}
	for i, step := range path {
		var ok bool
		if pids[i], ok = m.G.TermID(step.P); !ok {
			return out
		}
		if i < len(path)-1 {
			markers = append(markers, m.join(markers[i], pids[i], step.Inverse))
		}
	}
	// Backward restriction: M'_k = endValues; M'_i = Restrict(M_i, p_{i+1} :
	// M'_{i+1}). An end value outside M_k restricts M_{k-1} to nothing, so
	// M_k itself is never needed.
	for _, id := range endValues {
		out.ids.add(id)
	}
	for i := len(path) - 1; i >= 0; i-- {
		selected := out.ids
		out.ids = m.newIDSet()
		for vid := range selected.members() {
			m.restrictInto(&out.ids, markers[i], pids[i], path[i].Inverse, vid)
		}
	}
	return out
}
