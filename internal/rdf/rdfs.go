package rdf

import (
	"iter"
	"maps"
	"slices"
)

// Schema is a pre-computed view of the RDFS vocabulary of a graph: the class
// and property hierarchies (with their transitive closures), domains, ranges
// and functional-property declarations. It backs both the inference rules of
// C(K) (the paper's closure, §5.3.1) and the facet hierarchy rendering
// (reflexive-and-transitive reduction, §5.3.2).
type Schema struct {
	// Classes is the set of declared or used classes.
	Classes map[Term]struct{}
	// Properties is the set of declared or used properties (predicates).
	Properties map[Term]struct{}
	// SuperClasses maps a class to the transitive closure of its
	// superclasses (not reflexive).
	SuperClasses map[Term]map[Term]struct{}
	// SubClasses maps a class to the transitive closure of its subclasses.
	SubClasses map[Term]map[Term]struct{}
	// DirectSuperClasses is the reflexive-and-transitive *reduction* of
	// subClassOf: the minimal parent relation used to draw the facet tree.
	DirectSuperClasses map[Term]map[Term]struct{}
	// SuperProperties maps a property to the transitive closure of its
	// superproperties.
	SuperProperties map[Term]map[Term]struct{}
	// SubProperties maps a property to the transitive closure of its
	// subproperties.
	SubProperties map[Term]map[Term]struct{}
	// DirectSuperProperties is the reduction of subPropertyOf.
	DirectSuperProperties map[Term]map[Term]struct{}
	// Domains and Ranges map a property to its rdfs:domain / rdfs:range.
	Domains map[Term][]Term
	Ranges  map[Term][]Term
	// Functional holds the properties declared owl:FunctionalProperty.
	Functional map[Term]struct{}
}

// SchemaOf extracts the schema view from a graph.
func SchemaOf(g *Graph) *Schema {
	s := &Schema{
		Classes:               map[Term]struct{}{},
		Properties:            map[Term]struct{}{},
		SuperClasses:          map[Term]map[Term]struct{}{},
		SubClasses:            map[Term]map[Term]struct{}{},
		DirectSuperClasses:    map[Term]map[Term]struct{}{},
		SuperProperties:       map[Term]map[Term]struct{}{},
		SubProperties:         map[Term]map[Term]struct{}{},
		DirectSuperProperties: map[Term]map[Term]struct{}{},
		Domains:               map[Term][]Term{},
		Ranges:                map[Term][]Term{},
		Functional:            map[Term]struct{}{},
	}
	typeT := NewIRI(RDFType)
	// Declared classes.
	for _, classClass := range ClassClasses {
		g.Match(Any, typeT, NewIRI(classClass), func(t Triple) bool {
			s.Classes[t.S] = struct{}{}
			return true
		})
	}
	// Classes used as objects of rdf:type: one step per class, not per triple.
	g.mu.RLock()
	if typeID, ok := g.dict.Lookup(typeT); ok {
		g.ix[pos].distinct(key{typeID}, 1, func(o ID) {
			if c := g.dict.Term(o); c.IsIRI() && !isBuiltinMetaClass(c.Value) {
				s.Classes[c] = struct{}{}
			}
		})
	}
	g.mu.RUnlock()
	// Declared properties.
	for _, propClass := range PropertyClasses {
		g.Match(Any, typeT, NewIRI(propClass), func(t Triple) bool {
			s.Properties[t.S] = struct{}{}
			if propClass == OWLFunctionalProperty {
				s.Functional[t.S] = struct{}{}
			}
			return true
		})
	}
	// Properties actually used as predicates (excluding RDF/RDFS/OWL meta).
	for _, p := range g.Predicates() {
		if !isMetaProperty(p.Value) {
			s.Properties[p] = struct{}{}
		}
	}
	// subClassOf edges.
	subClassEdges := map[Term]map[Term]struct{}{}
	g.Match(Any, NewIRI(RDFSSubClassOf), Any, func(t Triple) bool {
		if t.S == t.O {
			return true
		}
		addEdge(subClassEdges, t.S, t.O)
		s.Classes[t.S] = struct{}{}
		if t.O.IsIRI() && !isBuiltinMetaClass(t.O.Value) {
			s.Classes[t.O] = struct{}{}
		}
		return true
	})
	s.SuperClasses = transitiveClosure(subClassEdges)
	s.SubClasses = invertRelation(s.SuperClasses)
	s.DirectSuperClasses = transitiveReduction(subClassEdges, s.SuperClasses)
	// subPropertyOf edges.
	subPropEdges := map[Term]map[Term]struct{}{}
	g.Match(Any, NewIRI(RDFSSubPropertyOf), Any, func(t Triple) bool {
		if t.S == t.O {
			return true
		}
		addEdge(subPropEdges, t.S, t.O)
		s.Properties[t.S] = struct{}{}
		s.Properties[t.O] = struct{}{}
		return true
	})
	s.SuperProperties = transitiveClosure(subPropEdges)
	s.SubProperties = invertRelation(s.SuperProperties)
	s.DirectSuperProperties = transitiveReduction(subPropEdges, s.SuperProperties)
	// Domains and ranges.
	g.Match(Any, NewIRI(RDFSDomain), Any, func(t Triple) bool {
		s.Domains[t.S] = append(s.Domains[t.S], t.O)
		return true
	})
	g.Match(Any, NewIRI(RDFSRange), Any, func(t Triple) bool {
		s.Ranges[t.S] = append(s.Ranges[t.S], t.O)
		return true
	})
	return s
}

// The vocabulary SchemaOf reads, in the order it reads it: the classes whose
// instances are declared classes (ClassClasses) and properties
// (PropertyClasses), the builtin classes never counted as a class of the
// data (MetaClasses) and the predicates never counted as a property of it
// (MetaProperties). The faceted layer renders its start state's rule from
// the same lists. Read only.
var (
	ClassClasses    = []string{RDFSClass, OWLClass}
	PropertyClasses = []string{RDFProperty, OWLObjectProperty, OWLDatatypeProperty, OWLFunctionalProperty}
	MetaClasses     = []string{RDFSClass, RDFSResource, RDFSLiteral, RDFProperty, OWLClass,
		OWLObjectProperty, OWLDatatypeProperty, OWLFunctionalProperty, OWLNamedIndividual}
	MetaProperties = []string{RDFType, RDFSSubClassOf, RDFSSubPropertyOf, RDFSDomain, RDFSRange,
		RDFSLabel, RDFSComment, RDFFirst, RDFRest}
)

func isBuiltinMetaClass(iri string) bool { return slices.Contains(MetaClasses, iri) }

func isMetaProperty(iri string) bool { return slices.Contains(MetaProperties, iri) }

func addEdge(m map[Term]map[Term]struct{}, from, to Term) {
	inner, ok := m[from]
	if !ok {
		inner = map[Term]struct{}{}
		m[from] = inner
	}
	inner[to] = struct{}{}
}

// transitiveClosure maps every node with an outgoing edge to all it reaches
// in one step or more. Cycles are tolerated: the members of a cycle become
// ancestors of each other and of themselves.
func transitiveClosure(edges map[Term]map[Term]struct{}) map[Term]map[Term]struct{} {
	closure := map[Term]map[Term]struct{}{}
	for n := range edges {
		reached := map[Term]struct{}{}
		for todo := []Term{n}; len(todo) > 0; {
			last := todo[len(todo)-1]
			todo = todo[:len(todo)-1]
			for parent := range edges[last] {
				if _, seen := reached[parent]; !seen {
					reached[parent] = struct{}{}
					todo = append(todo, parent)
				}
			}
		}
		closure[n] = reached
	}
	return closure
}

func invertRelation(rel map[Term]map[Term]struct{}) map[Term]map[Term]struct{} {
	out := map[Term]map[Term]struct{}{}
	for from, tos := range rel {
		for to := range tos {
			addEdge(out, to, from)
		}
	}
	return out
}

// transitiveReduction keeps only the edges (a, b) for which no intermediate c
// exists with a < c < b. This is the R^refl,trans(≤cl) of §5.3.2, used for
// the hierarchical facet layout.
func transitiveReduction(edges, closure map[Term]map[Term]struct{}) map[Term]map[Term]struct{} {
	out := map[Term]map[Term]struct{}{}
	for a, bs := range edges {
		for b := range bs {
			redundant := false
			for c := range edges[a] {
				if c == b {
					continue
				}
				if _, ok := closure[c][b]; ok {
					redundant = true
					break
				}
			}
			if !redundant {
				addEdge(out, a, b)
			}
		}
	}
	return out
}

// MaximalClasses returns the classes with no superclass, sorted. These are
// the top-level facet entries (maximal≤cl(C) in §5.3.2).
func (s *Schema) MaximalClasses() []Term {
	var out []Term
	for c := range s.Classes {
		if len(s.SuperClasses[c]) == 0 {
			out = append(out, c)
		}
	}
	SortTerms(out)
	return out
}

// MaximalProperties returns the properties with no superproperty, sorted.
func (s *Schema) MaximalProperties() []Term {
	var out []Term
	for p := range s.Properties {
		if len(s.SuperProperties[p]) == 0 {
			out = append(out, p)
		}
	}
	SortTerms(out)
	return out
}

// DirectSubClasses returns the immediate subclasses of c under the
// transitive reduction, sorted.
func (s *Schema) DirectSubClasses(c Term) []Term {
	var out []Term
	for sub, supers := range s.DirectSuperClasses {
		if _, ok := supers[c]; ok {
			out = append(out, sub)
		}
	}
	SortTerms(out)
	return out
}

// DirectSubProperties returns the immediate subproperties of p, sorted.
func (s *Schema) DirectSubProperties(p Term) []Term {
	var out []Term
	for sub, supers := range s.DirectSuperProperties {
		if _, ok := supers[p]; ok {
			out = append(out, sub)
		}
	}
	SortTerms(out)
	return out
}

// IsFunctional reports whether p is declared functional, or — when strict is
// false — whether it is *effectively* functional in g (at most one value per
// subject), the relaxation §4.1.1 allows.
func (s *Schema) IsFunctional(g *Graph, p Term, strict bool) bool {
	if _, ok := s.Functional[p]; ok {
		return true
	}
	if strict {
		return false
	}
	return EffectivelyFunctional(g, p)
}

// EffectivelyFunctional reports whether every subject has at most one value
// for p in g.
func EffectivelyFunctional(g *Graph, p Term) bool {
	counts := map[Term]int{}
	ok := true
	g.Match(Any, p, Any, func(t Triple) bool {
		counts[t.S]++
		if counts[t.S] > 1 {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// InferenceStats reports what Materialize added.
type InferenceStats struct {
	TypeFromSubClass   int
	TypeFromDomain     int
	TypeFromRange      int
	PropFromSubProp    int
	SubClassTransitive int
	SubPropTransitive  int
}

// Total returns the total number of inferred triples.
func (st InferenceStats) Total() int {
	return st.TypeFromSubClass + st.TypeFromDomain + st.TypeFromRange +
		st.PropFromSubProp + st.SubClassTransitive + st.SubPropTransitive
}

// Materialize computes the RDFS closure C(K) of g in place: transitive
// subClassOf/subPropertyOf, rdf:type propagation along subClassOf,
// predicate propagation along subPropertyOf, and typing from rdfs:domain /
// rdfs:range. It iterates to a fixpoint and returns per-rule counts.
//
// A round takes the schema once and runs the rules in ID space under the
// write lock: a rule scans one permutation for candidate keys and hands them
// to the write path AddAll uses, so an inferred triple is neither decoded nor
// interned, every effective add is journaled exactly once before the indexes
// change (in no specified order within a rule), and a later rule — in rdfs7,
// rdfs2 and rdfs3 a later predicate — sees what an earlier one added.
func Materialize(g *Graph) InferenceStats {
	var stats InferenceStats
	var buf []key // one rule's candidates, reused
	for {
		schema := SchemaOf(g)
		before := stats.Total()
		g.mu.Lock()
		id := func(t Term) ID { id, _ := g.dict.Lookup(t); return id } // schema terms are interned
		ids := func(ts iter.Seq[Term]) (out []ID) {
			for t := range ts {
				out = append(out, id(t))
			}
			return out
		}
		// rdf:type may be absent, and only a rule with a typing to add interns it.
		typeID := id(NewIRI(RDFType))
		typed := func() ID {
			if typeID == 0 {
				typeID = g.dict.Intern(NewIRI(RDFType))
			}
			return typeID
		}
		// derive collects infer(x, y, t) for every live (x p y) under the POS
		// prefix q[:n] and every target t; flush adds them and counts the new.
		derive := func(q key, n int, targets iter.Seq[Term], infer func(x, y, t ID) key) {
			ts := ids(targets)
			g.ix[pos].scan(pos, q, n, func(x, _, y ID) bool {
				for _, t := range ts {
					buf = append(buf, infer(x, y, t))
				}
				return true
			})
		}
		flush := func(n *int) {
			*n += g.addKeysLocked(buf)
			buf = buf[:0]
		}
		// rdfs11, rdfs5: subClassOf and subPropertyOf transitivity.
		for c, supers := range schema.SuperClasses {
			for sup := range supers {
				buf = append(buf, key{id(c), id(NewIRI(RDFSSubClassOf)), id(sup)})
			}
		}
		flush(&stats.SubClassTransitive)
		for p, supers := range schema.SuperProperties {
			for sup := range supers {
				buf = append(buf, key{id(p), id(NewIRI(RDFSSubPropertyOf)), id(sup)})
			}
		}
		flush(&stats.SubPropTransitive)
		// rdfs9: (x type c), (c subClassOf d) => (x type d).
		for c, supers := range schema.SuperClasses {
			derive(key{typeID, id(c)}, 2, maps.Keys(supers), func(x, _, d ID) key { return key{x, typeID, d} })
		}
		flush(&stats.TypeFromSubClass)
		// rdfs7: (x p y), (p subPropertyOf q) => (x q y).
		for p, supers := range schema.SuperProperties {
			derive(key{id(p)}, 1, maps.Keys(supers), func(x, y, q ID) key { return key{x, q, y} })
			flush(&stats.PropFromSubProp)
		}
		// rdfs2, rdfs3: domain typing of subjects, range typing of the distinct
		// resource objects.
		for p, domains := range schema.Domains {
			derive(key{id(p)}, 1, slices.Values(domains), func(x, _, d ID) key { return key{x, typed(), d} })
			flush(&stats.TypeFromDomain)
		}
		for p, ranges := range schema.Ranges {
			rs := ids(slices.Values(ranges))
			g.ix[pos].distinct(key{id(p)}, 1, func(y ID) {
				if g.dict.Term(y).IsResource() {
					for _, r := range rs {
						buf = append(buf, key{y, typed(), r})
					}
				}
			})
			flush(&stats.TypeFromRange)
		}
		g.mu.Unlock()
		if stats.Total() == before {
			return stats
		}
	}
}

// InstancesOf returns the instances of class c in g, honoring materialized
// subclass typing; sorted for determinism.
func InstancesOf(g *Graph, c Term) []Term {
	out := g.Subjects(NewIRI(RDFType), c)
	SortTerms(out)
	return out
}
