package rdf

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
	for _, classClass := range []string{RDFSClass, OWLClass} {
		g.Match(Any, typeT, NewIRI(classClass), func(t Triple) bool {
			s.Classes[t.S] = struct{}{}
			return true
		})
	}
	// Classes used as objects of rdf:type.
	g.Match(Any, typeT, Any, func(t Triple) bool {
		if t.O.IsIRI() && !isBuiltinMetaClass(t.O.Value) {
			s.Classes[t.O] = struct{}{}
		}
		return true
	})
	// Declared properties.
	for _, propClass := range []string{RDFProperty, OWLObjectProperty, OWLDatatypeProperty, OWLFunctionalProperty} {
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

func isBuiltinMetaClass(iri string) bool {
	switch iri {
	case RDFSClass, RDFSResource, RDFSLiteral, RDFProperty, OWLClass,
		OWLObjectProperty, OWLDatatypeProperty, OWLFunctionalProperty,
		OWLNamedIndividual:
		return true
	}
	return false
}

func isMetaProperty(iri string) bool {
	switch iri {
	case RDFType, RDFSSubClassOf, RDFSSubPropertyOf, RDFSDomain, RDFSRange,
		RDFSLabel, RDFSComment, RDFFirst, RDFRest:
		return true
	}
	return false
}

func addEdge(m map[Term]map[Term]struct{}, from, to Term) {
	inner, ok := m[from]
	if !ok {
		inner = map[Term]struct{}{}
		m[from] = inner
	}
	inner[to] = struct{}{}
}

// transitiveClosure computes the transitive closure of a DAG-ish relation
// (cycles are tolerated: members of a cycle become ancestors of each other).
func transitiveClosure(edges map[Term]map[Term]struct{}) map[Term]map[Term]struct{} {
	closure := map[Term]map[Term]struct{}{}
	var visit func(n Term, seen map[Term]struct{}) map[Term]struct{}
	visit = func(n Term, seen map[Term]struct{}) map[Term]struct{} {
		if done, ok := closure[n]; ok {
			return done
		}
		if _, cyc := seen[n]; cyc {
			return map[Term]struct{}{}
		}
		seen[n] = struct{}{}
		out := map[Term]struct{}{}
		for parent := range edges[n] {
			out[parent] = struct{}{}
			for anc := range visit(parent, seen) {
				out[anc] = struct{}{}
			}
		}
		delete(seen, n)
		closure[n] = out
		return out
	}
	for n := range edges {
		visit(n, map[Term]struct{}{})
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
func Materialize(g *Graph) InferenceStats {
	var stats InferenceStats
	typeT := NewIRI(RDFType)
	subClassT := NewIRI(RDFSSubClassOf)
	subPropT := NewIRI(RDFSSubPropertyOf)
	for {
		added := 0
		schema := SchemaOf(g)
		// rdfs11: subClassOf transitivity.
		for c, supers := range schema.SuperClasses {
			for sup := range supers {
				if g.Add(Triple{c, subClassT, sup}) {
					stats.SubClassTransitive++
					added++
				}
			}
		}
		// rdfs5: subPropertyOf transitivity.
		for p, supers := range schema.SuperProperties {
			for sup := range supers {
				if g.Add(Triple{p, subPropT, sup}) {
					stats.SubPropTransitive++
					added++
				}
			}
		}
		// rdfs9: (x type c), (c subClassOf d) => (x type d).
		for _, t := range triplesWith(g, typeT) {
			for sup := range schema.SuperClasses[t.O] {
				if g.Add(Triple{t.S, typeT, sup}) {
					stats.TypeFromSubClass++
					added++
				}
			}
		}
		// rdfs7: (x p y), (p subPropertyOf q) => (x q y).
		for p, supers := range schema.SuperProperties {
			for _, t := range triplesWith(g, p) {
				for sup := range supers {
					if g.Add(Triple{t.S, sup, t.O}) {
						stats.PropFromSubProp++
						added++
					}
				}
			}
		}
		// rdfs2/rdfs3: domain and range typing.
		for p, domains := range schema.Domains {
			for _, t := range triplesWith(g, p) {
				for _, d := range domains {
					if g.Add(Triple{t.S, typeT, d}) {
						stats.TypeFromDomain++
						added++
					}
				}
			}
		}
		for p, ranges := range schema.Ranges {
			for _, t := range triplesWith(g, p) {
				if !t.O.IsResource() {
					continue
				}
				for _, r := range ranges {
					if g.Add(Triple{t.O, typeT, r}) {
						stats.TypeFromRange++
						added++
					}
				}
			}
		}
		if added == 0 {
			return stats
		}
	}
}

// triplesWith returns the triples whose predicate is p, copied out so the
// caller can add to the graph while walking them; sized from the count, so a
// large predicate costs one allocation instead of a doubling series.
func triplesWith(g *Graph, p Term) []Triple {
	out := make([]Triple, 0, g.MatchCount(Any, p, Any))
	g.Match(Any, p, Any, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// InstancesOf returns the instances of class c in g, honoring materialized
// subclass typing; sorted for determinism.
func InstancesOf(g *Graph, c Term) []Term {
	out := g.Subjects(NewIRI(RDFType), c)
	SortTerms(out)
	return out
}
