package rdf

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

const productSchema = `@prefix ex: <http://ex.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:Product a rdfs:Class .
ex:Laptop a rdfs:Class ; rdfs:subClassOf ex:Product .
ex:Gaming a rdfs:Class ; rdfs:subClassOf ex:Laptop .
ex:HDType a rdfs:Class ; rdfs:subClassOf ex:Product .
ex:SSD a rdfs:Class ; rdfs:subClassOf ex:HDType .
ex:Company a rdfs:Class .
ex:producer a rdf:Property ; rdfs:domain ex:Product ; rdfs:range ex:Company .
ex:manufacturer rdfs:subPropertyOf ex:producer .
ex:laptop1 a ex:Gaming ; ex:manufacturer ex:dell .
ex:laptop2 a ex:Laptop .
ex:hd1 a ex:SSD .
`

func TestSchemaHierarchies(t *testing.T) {
	g := MustLoadTurtle(productSchema)
	s := SchemaOf(g)
	laptop := ex("Laptop")
	gaming := ex("Gaming")
	product := ex("Product")
	if _, ok := s.SuperClasses[gaming][product]; !ok {
		t.Error("transitive superclass Gaming -> Product missing")
	}
	if _, ok := s.SubClasses[product][gaming]; !ok {
		t.Error("transitive subclass Product -> Gaming missing")
	}
	// Direct (reduced) parents: Gaming's only direct parent is Laptop.
	if _, ok := s.DirectSuperClasses[gaming][laptop]; !ok {
		t.Error("direct superclass Gaming -> Laptop missing")
	}
	if _, ok := s.DirectSuperClasses[gaming][product]; ok {
		t.Error("reduction kept redundant edge Gaming -> Product")
	}
}

func TestTransitiveReductionRemovesShortcut(t *testing.T) {
	// a <= b <= c plus shortcut a <= c must reduce to a<=b, b<=c.
	doc := `@prefix ex: <http://ex.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:a rdfs:subClassOf ex:b .
ex:b rdfs:subClassOf ex:c .
ex:a rdfs:subClassOf ex:c .
`
	s := SchemaOf(MustLoadTurtle(doc))
	if _, ok := s.DirectSuperClasses[ex("a")][ex("c")]; ok {
		t.Error("shortcut edge a->c survived reduction")
	}
	if _, ok := s.DirectSuperClasses[ex("a")][ex("b")]; !ok {
		t.Error("edge a->b missing after reduction")
	}
}

func TestSchemaCycleTolerated(t *testing.T) {
	doc := `@prefix ex: <http://ex.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:a rdfs:subClassOf ex:b .
ex:b rdfs:subClassOf ex:a .
`
	s := SchemaOf(MustLoadTurtle(doc)) // must not hang or panic
	if s == nil {
		t.Fatal("nil schema")
	}
}

// TestSchemaCycleClosedWhateverTheOrder: every member of a subClassOf cycle
// has every member as an ancestor, and what hangs below the cycle has them
// all — on every call, though SchemaOf walks Go maps. (A closure memoized
// while the cycle was still open used to leave out whichever members the map
// order made it meet first, and the materialized graph varied with it.)
func TestSchemaCycleClosedWhateverTheOrder(t *testing.T) {
	g := MustLoadTurtle(`@prefix ex: <http://ex.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:a rdfs:subClassOf ex:b .
ex:b rdfs:subClassOf ex:c .
ex:c rdfs:subClassOf ex:a .
ex:d rdfs:subClassOf ex:b .
ex:c rdfs:subClassOf ex:top .
`)
	for i := 0; i < 20; i++ {
		s := SchemaOf(g)
		for _, c := range []string{"a", "b", "c", "d"} {
			for _, anc := range []string{"a", "b", "c", "top"} {
				if _, ok := s.SuperClasses[ex(c)][ex(anc)]; !ok {
					t.Fatalf("call %d: %s lacks ancestor %s", i, c, anc)
				}
			}
		}
		if len(s.SuperClasses[ex("d")]) != 4 || len(s.SuperClasses[ex("top")]) != 0 {
			t.Fatalf("call %d: d has %d ancestors, top %d; want 4 and 0", i, len(s.SuperClasses[ex("d")]), len(s.SuperClasses[ex("top")]))
		}
	}
}

func TestMaximalClassesAndProperties(t *testing.T) {
	g := MustLoadTurtle(productSchema)
	s := SchemaOf(g)
	maxC := s.MaximalClasses()
	want := map[Term]bool{ex("Product"): true, ex("Company"): true}
	for _, c := range maxC {
		if !want[c] {
			t.Errorf("unexpected maximal class %v", c)
		}
		delete(want, c)
	}
	if len(want) != 0 {
		t.Errorf("missing maximal classes: %v", want)
	}
	// producer is maximal; manufacturer is not.
	foundProducer := false
	for _, p := range s.MaximalProperties() {
		if p == ex("manufacturer") {
			t.Error("manufacturer must not be maximal (has superproperty)")
		}
		if p == ex("producer") {
			foundProducer = true
		}
	}
	if !foundProducer {
		t.Error("producer missing from maximal properties")
	}
}

func TestDirectSubClasses(t *testing.T) {
	s := SchemaOf(MustLoadTurtle(productSchema))
	subs := s.DirectSubClasses(ex("Product"))
	if len(subs) != 2 { // Laptop, HDType
		t.Errorf("DirectSubClasses(Product) = %v", subs)
	}
	subs = s.DirectSubClasses(ex("Laptop"))
	if len(subs) != 1 || subs[0] != ex("Gaming") {
		t.Errorf("DirectSubClasses(Laptop) = %v", subs)
	}
}

func TestMaterializeSubClassTyping(t *testing.T) {
	g := MustLoadTurtle(productSchema)
	stats := Materialize(g)
	// laptop1: Gaming => Laptop => Product
	if !g.Has(Triple{ex("laptop1"), NewIRI(RDFType), ex("Laptop")}) {
		t.Error("rdfs9 inference laptop1 type Laptop missing")
	}
	if !g.Has(Triple{ex("laptop1"), NewIRI(RDFType), ex("Product")}) {
		t.Error("rdfs9 inference laptop1 type Product missing")
	}
	if stats.TypeFromSubClass == 0 {
		t.Error("stats did not count subclass typing")
	}
	// Idempotence: second run adds nothing.
	again := Materialize(g)
	if again.Total() != 0 {
		t.Errorf("Materialize not idempotent, added %d", again.Total())
	}
}

func TestMaterializeSubPropertyAndDomainRange(t *testing.T) {
	g := MustLoadTurtle(productSchema)
	Materialize(g)
	// rdfs7: manufacturer => producer
	if !g.Has(Triple{ex("laptop1"), ex("producer"), ex("dell")}) {
		t.Error("rdfs7 inference missing")
	}
	// rdfs2: domain typing of producer already satisfied; range typing makes dell a Company
	if !g.Has(Triple{ex("dell"), NewIRI(RDFType), ex("Company")}) {
		t.Error("rdfs3 range typing missing")
	}
}

func TestMaterializeTransitiveEdges(t *testing.T) {
	g := MustLoadTurtle(productSchema)
	Materialize(g)
	if !g.Has(Triple{ex("Gaming"), NewIRI(RDFSSubClassOf), ex("Product")}) {
		t.Error("rdfs11 transitive subClassOf edge missing")
	}
}

func TestInstancesOf(t *testing.T) {
	g := MustLoadTurtle(productSchema)
	Materialize(g)
	laptops := InstancesOf(g, ex("Laptop"))
	if len(laptops) != 2 { // laptop1 (via Gaming) + laptop2
		t.Errorf("InstancesOf(Laptop) = %v", laptops)
	}
	products := InstancesOf(g, ex("Product"))
	if len(products) != 3 { // laptop1, laptop2, hd1
		t.Errorf("InstancesOf(Product) = %v", products)
	}
}

func TestEffectivelyFunctional(t *testing.T) {
	g := NewGraph()
	g.Add(Triple{ex("a"), ex("single"), NewInteger(1)})
	g.Add(Triple{ex("b"), ex("single"), NewInteger(2)})
	g.Add(Triple{ex("a"), ex("multi"), NewInteger(1)})
	g.Add(Triple{ex("a"), ex("multi"), NewInteger(2)})
	if !EffectivelyFunctional(g, ex("single")) {
		t.Error("single-valued property reported non-functional")
	}
	if EffectivelyFunctional(g, ex("multi")) {
		t.Error("multi-valued property reported functional")
	}
}

func TestIsFunctionalDeclared(t *testing.T) {
	doc := `@prefix ex: <http://ex.org/> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
ex:price a owl:FunctionalProperty .
ex:a ex:price 1 .
ex:a ex:price 2 .
`
	g := MustLoadTurtle(doc)
	s := SchemaOf(g)
	// Declared functional wins even if data violates it.
	if !s.IsFunctional(g, ex("price"), true) {
		t.Error("declared functional property not recognized")
	}
	// Undeclared property with single values is effectively functional.
	g2 := NewGraph()
	g2.Add(Triple{ex("a"), ex("p"), NewInteger(1)})
	s2 := SchemaOf(g2)
	if s2.IsFunctional(g2, ex("p"), true) {
		t.Error("strict mode must not accept undeclared property")
	}
	if !s2.IsFunctional(g2, ex("p"), false) {
		t.Error("relaxed mode must accept effectively functional property")
	}
}

func TestSchemaExcludesMetaVocabulary(t *testing.T) {
	g := MustLoadTurtle(productSchema)
	s := SchemaOf(g)
	for c := range s.Classes {
		if isBuiltinMetaClass(c.Value) {
			t.Errorf("meta class %v leaked into schema classes", c)
		}
	}
	for p := range s.Properties {
		if isMetaProperty(p.Value) {
			t.Errorf("meta property %v leaked into schema properties", p)
		}
	}
}

func BenchmarkMaterialize(b *testing.B) {
	// Parsing cost is included (timer manipulation inside b.Loop is
	// unsupported); it is an order of magnitude below the closure cost.
	for b.Loop() {
		g := MustLoadTurtle(productSchema)
		Materialize(g)
	}
}

// materializeReference is Materialize as it was while the closure ran on
// terms through the public API: one Add per candidate, predicates copied out
// as []Triple before the adds. The ID-space Materialize is held to it.
func materializeReference(g *Graph) InferenceStats {
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
// caller can add to the graph while walking them.
func triplesWith(g *Graph, p Term) []Triple {
	out := make([]Triple, 0, g.MatchCount(Any, p, Any))
	g.Match(Any, p, Any, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// randomSchemaGraph is a seeded graph that gives every rule of the closure
// work, and rules something to leave for each other: a subClassOf hierarchy
// over C0..C9 with shortcuts, a three-level subPropertyOf chain among other
// sub-properties, properties with several domains and several ranges,
// resource and literal objects under ranged properties, and typed instances.
// shape selects what else: 1 closes subClassOf cycles through the root (every
// class reaches C0); 2 drops every rdf:type triple; 3 keeps only the schema,
// no instance data at all.
func randomSchemaGraph(seed int64, shape int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph()
	class := func(i int) Term { return ex(fmt.Sprintf("C%d", i)) }
	prop := func(i int) Term { return ex(fmt.Sprintf("P%d", i)) }
	inst := func(i int) Term { return ex(fmt.Sprintf("i%d", i)) }
	add := func(s Term, p string, o Term) { g.Add(Triple{s, NewIRI(p), o}) }
	for i := 1; i < 10; i++ {
		for n := 1 + rng.Intn(2); n > 0; n-- {
			add(class(i), RDFSSubClassOf, class(rng.Intn(i)))
		}
	}
	add(prop(0), RDFSSubPropertyOf, prop(1))
	add(prop(1), RDFSSubPropertyOf, prop(2))
	add(prop(2), RDFSSubPropertyOf, prop(3))
	for i := 4; i < 8; i++ {
		add(prop(i), RDFSSubPropertyOf, prop(rng.Intn(i)))
	}
	for i := 0; i < 8; i++ {
		for n := rng.Intn(3); n > 0; n-- {
			add(prop(i), RDFSDomain, class(rng.Intn(10)))
		}
		for n := rng.Intn(3); n > 0; n-- {
			add(prop(i), RDFSRange, class(rng.Intn(10)))
		}
	}
	if shape == 1 {
		add(class(0), RDFSSubClassOf, class(5+rng.Intn(5)))
		add(class(1), RDFSSubClassOf, class(2+rng.Intn(8)))
	}
	if shape == 3 {
		return g
	}
	for i := 0; i < 150; i++ {
		var o Term = inst(rng.Intn(60))
		if rng.Intn(3) == 0 {
			o = NewInteger(int64(rng.Intn(20)))
		}
		g.Add(Triple{inst(rng.Intn(60)), prop(rng.Intn(8)), o})
	}
	if shape != 2 {
		for i := 0; i < 40; i++ {
			add(inst(rng.Intn(60)), RDFType, class(rng.Intn(10)))
		}
	}
	return g
}

// TestMaterializeMatchesReference: on seeded random schema graphs the
// ID-space closure adds the triples the term-level one adds, attributes them
// to the same rules, and leaves the same dictionary — rdf:type enters it only
// where a rule has a typing to add — while the journal hears of each inferred
// triple exactly once, before the indexes hold it, under consecutive versions.
func TestMaterializeMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		shape := int(seed % 4)
		g, ref := randomSchemaGraph(seed, shape), randomSchemaGraph(seed, shape)
		var log journalLog
		g.SetJournal(log.hookOn(t, g))
		got, want := Materialize(g), materializeReference(ref)
		if got != want {
			t.Errorf("seed %d shape %d: InferenceStats = %+v, reference %+v", seed, shape, got, want)
		}
		if !slices.Equal(g.Triples(), ref.Triples()) {
			t.Errorf("seed %d shape %d: %d triples, reference %d, or not the same ones", seed, shape, g.Len(), ref.Len())
		}
		if g.TermCount() != ref.TermCount() {
			t.Errorf("seed %d shape %d: TermCount = %d, reference %d", seed, shape, g.TermCount(), ref.TermCount())
		}
		if _, typed := g.TermID(NewIRI(RDFType)); shape == 3 && typed {
			t.Errorf("seed %d: rdf:type interned by a closure with no typing to add", seed)
		}
		if g.Version() != ref.Version() || len(log) != got.Total() {
			t.Errorf("seed %d shape %d: version %d after %d journal calls, reference version %d after %d adds", seed, shape, g.Version(), len(log), ref.Version(), want.Total())
		}
		slices.Sort(log) // lines end in the version
		if len(slices.Compact(log)) != got.Total() {
			t.Errorf("seed %d shape %d: a triple was journaled twice", seed, shape)
		}
	}
}
