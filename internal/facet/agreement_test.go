package facet

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

// agreementGraphs are the graphs the agreement walks click through: the
// paper's products example, generated products, and invoices with
// date-times whose lexical order is not their time-line order.
func agreementGraphs(t *testing.T) map[string]*rdf.Graph {
	invoices := datagen.Invoices(datagen.InvoicesConfig{Invoices: 300, Seed: 9, Timestamps: true})
	rdf.Materialize(invoices)
	return map[string]*rdf.Graph{
		"example":  model(t).G,
		"products": datagen.Products(datagen.ProductsConfig{Laptops: 200, Companies: 8, Seed: 17, Materialize: true}),
		"invoices": invoices,
	}
}

// checkAgreement fails t unless s's extension is exactly the answer of the
// sub-select a run injects for s's intention (core.Session.Context): SELECT
// DISTINCT ?x1 over its patterns, or over the start rule (StartPatterns)
// when the intention renders none.
func checkAgreement(t *testing.T, m *Model, s *State, where string) {
	t.Helper()
	pats := s.Int.Patterns("?x1")
	if strings.TrimSpace(pats) == "" {
		pats = StartPatterns("?x1")
	}
	src := "SELECT DISTINCT ?x1 WHERE {\n" + pats + "}"
	res, err := sparql.Select(m.G, src)
	if err != nil {
		t.Fatalf("%s: %v\n%s", where, err, src)
	}
	got := NewTermSet(res.Column("x1")...)
	for _, e := range s.Ext.Items() {
		if !got.Has(e) {
			t.Errorf("%s: %v is in the extension, not in the sub-select's answer\n%s", where, e, src)
		}
	}
	for _, e := range got.Items() {
		if !s.Ext.Has(e) {
			t.Errorf("%s: %v is in the sub-select's answer, not in the extension\n%s", where, e, src)
		}
	}
}

// agreementStep makes one random click from s: a class, a value, a value set,
// a range over the value of a facet (numbers, dates, date-times, and terms
// with no order), each on a forward or an inverse facet, an expanded path's
// value or range, or a focus switch. It returns nil when the click it drew
// has nothing to click.
func agreementStep(m *Model, s *State, rng *rand.Rand) (*State, string) {
	facets := m.PropertyFacets(s, rng.Intn(2) == 0)
	var f Facet
	for _, i := range rng.Perm(len(facets)) {
		if len(facets[i].Values) > 0 {
			f = facets[i]
			break
		}
	}
	if len(f.Values) == 0 {
		return nil, ""
	}
	path := Path{{P: f.P, Inverse: f.Inverse}}
	vals := m.Decode(f.Values)
	v := vals[rng.Intn(len(vals))].Value
	ops := []string{"<", "<=", ">", ">=", "=", "!="}
	switch rng.Intn(8) {
	case 0:
		var flat []ClassNode
		var collect func(ns []ClassNode)
		collect = func(ns []ClassNode) {
			for _, n := range ns {
				flat = append(flat, n)
				collect(n.Children)
			}
		}
		collect(m.ClassFacet(s))
		if len(flat) == 0 {
			return nil, ""
		}
		c := flat[rng.Intn(len(flat))].Class
		return m.ClickClass(s, c), "class " + c.LocalName()
	case 1, 2:
		return m.ClickValue(s, path, v), fmt.Sprintf("value %s = %s", path, v)
	case 3:
		vs := []rdf.Term{v, vals[rng.Intn(len(vals))].Value}
		return m.ClickValueSet(s, path, vs), fmt.Sprintf("value set %s ∈ %v", path, vs)
	case 4, 5:
		op := ops[rng.Intn(len(ops))]
		return m.ClickRange(s, path, op, v), fmt.Sprintf("range %s %s %s", path, op, v)
	case 6:
		props := m.applicableProperties()
		for _, i := range rng.Perm(len(props)) {
			long := append(path[:1:1], PathStep{P: props[i], Inverse: rng.Intn(4) == 0})
			end := m.Decode(m.ExpandPath(s, long))
			if len(end) == 0 {
				continue
			}
			ev := end[rng.Intn(len(end))].Value
			if rng.Intn(2) == 0 {
				return m.ClickValue(s, long, ev), fmt.Sprintf("value %s = %s", long, ev)
			}
			op := ops[rng.Intn(len(ops))]
			return m.ClickRange(s, long, op, ev), fmt.Sprintf("range %s %s %s", long, op, ev)
		}
		return nil, ""
	default:
		return m.SwitchFocus(s, path[0]), "pivot " + path.String()
	}
}

// TestIntentionExtensionAgreement: along seeded random walks over three
// graphs, every state's extension — computed set-wise (Table 5.1) — is
// exactly the answer of its intention's sub-select (Table 5.2), the bare
// start state's included. A run evaluates its analytic query over the
// extension's IDs in place of that sub-select (core.Run.Exec), so this is
// what keeps a run's answer the one its SPARQL shows.
func TestIntentionExtensionAgreement(t *testing.T) {
	for name, g := range agreementGraphs(t) {
		m := NewModel(g)
		checkAgreement(t, m, m.Start(), name+": start")
		for seed := int64(1); seed <= 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := m.Start()
			var clicks []string
			for step := 0; step < 6; step++ {
				next, click := agreementStep(m, s, rng)
				if next == nil {
					continue
				}
				clicks = append(clicks, click)
				checkAgreement(t, m, next, fmt.Sprintf("%s seed %d: %s", name, seed, strings.Join(clicks, " → ")))
				if s = next; s.Ext.Len() == 0 {
					s, clicks = m.Start(), nil
				}
			}
		}
	}
}

// TestClassClickKeepsWhatItDoesNotNarrow is products seed 8 of the walk:
// Laptop, then Product. The extension stays the laptops; an intention that
// swapped Laptop for Product answered every product, hard drives included.
func TestClassClickKeepsWhatItDoesNotNarrow(t *testing.T) {
	m := model(t)
	s := m.ClickClass(m.ClickClass(m.Start(), pe("Laptop")), pe("Product"))
	if s.Int.Class != pe("Laptop") || len(s.Int.Conds) != 1 {
		t.Errorf("intention %s, want the class Laptop and a condition on Product", s.Int)
	}
	checkAgreement(t, m, s, "Laptop → Product")
	// A subclass narrows its superclass: it replaces it.
	s = m.ClickClass(m.ClickClass(m.Start(), pe("Product")), pe("Laptop"))
	if s.Int.Class != pe("Laptop") || len(s.Int.Conds) != 0 {
		t.Errorf("intention %s, want the class Laptop alone", s.Int)
	}
	checkAgreement(t, m, s, "Product → Laptop")
}

// TestInverseRangeRestrictsBackwards is example seed 11 of the walk: a range
// click on the inverse facet ^origin keeps the countries some company other
// than DELL comes from. It used to compare along origin forwards and keep
// the companies.
func TestInverseRangeRestrictsBackwards(t *testing.T) {
	m := model(t)
	s := m.ClickRange(m.Start(), Path{{P: pe("origin"), Inverse: true}}, "!=", pe("DELL"))
	if s.Ext.Has(pe("DELL")) || !s.Ext.Has(pe("China")) {
		t.Errorf("extension %v, want countries", s.Ext.Items())
	}
	checkAgreement(t, m, s, "^origin != DELL")
}

// TestPivotToLiteralsReachesNoEntity is example seed 10 of the walk: a focus
// switch along a datatype property (GDPPerCapita) moves to resources only,
// so to none, and the intention says so; it used to answer the numbers.
func TestPivotToLiteralsReachesNoEntity(t *testing.T) {
	m := model(t)
	s := m.SwitchFocus(m.Start(), PathStep{P: pe("GDPPerCapita")})
	if s.Ext.Len() != 0 {
		t.Errorf("extension %v, want none", s.Ext.Items())
	}
	checkAgreement(t, m, s, "pivot GDPPerCapita")
}

// TestPivotFromStartRendersTheStartRule: a focus switch from the start
// state renders the start rule as its base, so its text answers what its
// extension holds. ex:C is a class (ex:a's type), so not in the start
// state, and ex:z, which only ex:C knows, is not reached.
func TestPivotFromStartRendersTheStartRule(t *testing.T) {
	ex := func(l string) rdf.Term { return rdf.NewIRI("http://ex.org/" + l) }
	g := rdf.NewGraph()
	for _, tr := range []rdf.Triple{
		{S: ex("a"), P: rdf.NewIRI(rdf.RDFType), O: ex("C")},
		{S: ex("a"), P: ex("knows"), O: ex("b")},
		{S: ex("C"), P: ex("knows"), O: ex("z")},
	} {
		g.Add(tr)
	}
	m := NewModel(g)
	s := m.SwitchFocus(m.Start(), PathStep{P: ex("knows")})
	if items := s.Ext.Items(); len(items) != 1 || items[0] != ex("b") {
		t.Fatalf("extension %v, want [ex:b]", items)
	}
	res, err := sparql.Select(g, s.Int.ToSPARQL())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Column("x"); len(got) != 1 || got[0] != ex("b") {
		t.Errorf("the intention's text answers %v, want [ex:b]\n%s", got, s.Int.ToSPARQL())
	}
	checkAgreement(t, m, s, "pivot knows from the start state")
}

// TestStartRuleMatchesStart: the start rule (StartPatterns) answers exactly
// Start's extension on a graph made to tell them apart — declared and used
// classes and properties, both ends of rdfs:subClassOf and
// rdfs:subPropertyOf edges, an edge from a term to itself, builtin classes
// and predicates as subjects, a blank type, a blank individual and a
// property that is also described.
func TestStartRuleMatchesStart(t *testing.T) {
	ex := func(l string) rdf.Term { return rdf.NewIRI("http://ex.org/" + l) }
	typ, sub, subP := rdf.NewIRI(rdf.RDFType), rdf.NewIRI(rdf.RDFSSubClassOf), rdf.NewIRI(rdf.RDFSSubPropertyOf)
	label := rdf.NewIRI(rdf.RDFSLabel)
	g := rdf.NewGraph()
	for _, tr := range []rdf.Triple{
		{S: ex("Declared"), P: typ, O: rdf.NewIRI(rdf.OWLClass)},                  // a declared class
		{S: ex("a"), P: typ, O: ex("Used")},                                       // a used class; a an individual
		{S: ex("Used"), P: label, O: rdf.NewString("used")},                       // which is described
		{S: ex("Sub"), P: sub, O: ex("Super")},                                    // both ends of an edge
		{S: ex("Super"), P: label, O: rdf.NewString("super")},                     //
		{S: ex("self"), P: sub, O: ex("self")},                                    // an edge to itself: no class
		{S: ex("self"), P: ex("knows"), O: ex("a")},                               // knows: a used property
		{S: ex("knows"), P: label, O: rdf.NewString("knows")},                     // which is described
		{S: ex("subP"), P: subP, O: ex("superP")},                                 // both ends of a property edge
		{S: ex("superP"), P: label, O: rdf.NewString("super property")},           //
		{S: ex("selfP"), P: subP, O: ex("selfP")},                                 // an edge to itself: no property
		{S: ex("declP"), P: typ, O: rdf.NewIRI(rdf.OWLDatatypeProperty)},          // a declared property
		{S: rdf.NewIRI(rdf.OWLClass), P: label, O: rdf.NewString("class")},        // a builtin class, described
		{S: rdf.NewIRI(rdf.RDFSLabel), P: label, O: rdf.NewString("label")},       // a builtin predicate, described
		{S: rdf.NewIRI(rdf.RDFSComment), P: typ, O: rdf.NewIRI(rdf.RDFProperty)},  // one declared a property
		{S: ex("b"), P: typ, O: rdf.NewBlank("anon")},                             // a blank type: no class
		{S: rdf.NewBlank("anon"), P: label, O: rdf.NewString("anonymous")},        //
		{S: rdf.NewBlank("node"), P: ex("knows"), O: ex("b")},                     // a blank individual
		{S: ex("c"), P: sub, O: rdf.NewString("not a class")},                     // c a class, its object no IRI
		{S: ex("d"), P: typ, O: rdf.NewIRI(rdf.RDFSResource)},                     // a builtin type: no class
		{S: rdf.NewIRI(rdf.RDFSResource), P: label, O: rdf.NewString("resource")}, //
		{S: ex("e"), P: sub, O: rdf.NewIRI(rdf.RDFSResource)},                     // e a class, Resource still none
	} {
		g.Add(tr)
	}
	m := NewModel(g)
	s := m.Start()
	for _, want := range []rdf.Term{ex("a"), ex("self"), ex("selfP"), ex("b"), ex("d"), rdf.NewIRI(rdf.OWLClass), rdf.NewIRI(rdf.RDFSLabel), rdf.NewBlank("anon"), rdf.NewBlank("node"), rdf.NewIRI(rdf.RDFSResource)} {
		if !s.Ext.Has(want) {
			t.Errorf("%v is not in the start extension %v", want, s.Ext.Items())
		}
	}
	if s.Ext.Len() != 10 {
		t.Errorf("start extension %v, want 10 members", s.Ext.Items())
	}
	checkAgreement(t, m, s, "start")
}
