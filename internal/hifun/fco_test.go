package hifun

import (
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
)

func fcoGraph() (*rdf.Graph, []rdf.Term) {
	g := rdf.MustLoadTurtle(`@prefix ex: <http://e/> .
ex:brand1 ex:founder ex:alice , ex:bob .
ex:brand2 ex:founder ex:carol .
ex:brand3 ex:name "Nameless" .
ex:alice ex:nationality ex:French .
ex:bob ex:nationality ex:German .
ex:carol ex:nationality ex:French .
ex:alice ex:age 50 .
ex:bob ex:age 40 .
`)
	ents := []rdf.Term{
		rdf.NewIRI("http://e/brand1"),
		rdf.NewIRI("http://e/brand2"),
		rdf.NewIRI("http://e/brand3"),
	}
	return g, ents
}

func p(l string) rdf.Term { return rdf.NewIRI("http://e/" + l) }

func TestFCOValue(t *testing.T) {
	g, ents := fcoGraph()
	n, err := ApplyFeature(g, ents, FeatureSpec{Op: FCOValue, P: p("founder"), Feature: p("f_founder")})
	if err != nil {
		t.Fatal(err)
	}
	// Only brand2 is single-valued.
	if n != 1 {
		t.Fatalf("added = %d, want 1", n)
	}
	if g.Object(p("brand2"), p("f_founder")) != p("carol") {
		t.Error("brand2 feature wrong")
	}
}

func TestFCOExists(t *testing.T) {
	g, ents := fcoGraph()
	if _, err := ApplyFeature(g, ents, FeatureSpec{Op: FCOExists, P: p("founder"), Feature: p("hasFounder")}); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"brand1": 1, "brand2": 1, "brand3": 0}
	for b, w := range want {
		v, _ := g.Object(p(b), p("hasFounder")).Int()
		if v != w {
			t.Errorf("%s = %d, want %d", b, v, w)
		}
	}
}

func TestFCOCount(t *testing.T) {
	g, ents := fcoGraph()
	ApplyFeature(g, ents, FeatureSpec{Op: FCOCount, P: p("founder"), Feature: p("nFounders")})
	want := map[string]int64{"brand1": 2, "brand2": 1, "brand3": 0}
	for b, w := range want {
		if v, _ := g.Object(p(b), p("nFounders")).Int(); v != w {
			t.Errorf("%s = %d, want %d", b, v, w)
		}
	}
}

func TestFCOValuesAsFeatures(t *testing.T) {
	g, ents := fcoGraph()
	ApplyFeature(g, ents, FeatureSpec{Op: FCOValuesAsFeatures, P: p("founder"), Feature: p("founder")})
	// brand1 has alice and bob -> founder_alice=1, founder_bob=1, founder_carol=0.
	if v, _ := g.Object(p("brand1"), p("founder_alice")).Int(); v != 1 {
		t.Error("founder_alice wrong")
	}
	if v, _ := g.Object(p("brand1"), p("founder_carol")).Int(); v != 0 {
		t.Error("founder_carol complement missing")
	}
	if v, _ := g.Object(p("brand3"), p("founder_alice")).Int(); v != 0 {
		t.Error("brand3 complement missing")
	}
}

func TestFCODegree(t *testing.T) {
	g, ents := fcoGraph()
	ApplyFeature(g, ents, FeatureSpec{Op: FCODegree, Feature: p("deg")})
	// brand1: 2 outgoing founder triples, 0 incoming.
	if v, _ := g.Object(p("brand1"), p("deg")).Int(); v != 2 {
		t.Errorf("brand1 degree = %d", v)
	}
}

func TestFCOAvgDegree(t *testing.T) {
	g, ents := fcoGraph()
	ApplyFeature(g, ents, FeatureSpec{Op: FCOAvgDegree, P: p("founder"), Feature: p("avgDeg")})
	// alice: nationality+age out, founder in = 3; bob: 3. avg = 3.
	if f, _ := g.Object(p("brand1"), p("avgDeg")).Float(); f != 3 {
		t.Errorf("brand1 avgDeg = %v", f)
	}
	// brand3 has no founders: neutral 0.
	if v, _ := g.Object(p("brand3"), p("avgDeg")).Int(); v != 0 {
		t.Error("brand3 neutral value missing")
	}
}

func TestFCOPathOps(t *testing.T) {
	g, ents := fcoGraph()
	// fco7: founder/nationality exists.
	ApplyFeature(g, ents, FeatureSpec{Op: FCOPathExists, P: p("founder"), P2: p("nationality"), Feature: p("px")})
	if v, _ := g.Object(p("brand1"), p("px")).Int(); v != 1 {
		t.Error("path exists wrong for brand1")
	}
	if v, _ := g.Object(p("brand3"), p("px")).Int(); v != 0 {
		t.Error("path exists wrong for brand3")
	}
	// fco8: count distinct endpoints.
	ApplyFeature(g, ents, FeatureSpec{Op: FCOPathCount, P: p("founder"), P2: p("nationality"), Feature: p("pc")})
	if v, _ := g.Object(p("brand1"), p("pc")).Int(); v != 2 { // French, German
		t.Errorf("path count = %d", v)
	}
	// fco9: most frequent endpoint.
	g2 := rdf.MustLoadTurtle(`@prefix ex: <http://e/> .
ex:b ex:f ex:p1 , ex:p2 , ex:p3 .
ex:p1 ex:nat ex:FR . ex:p2 ex:nat ex:FR . ex:p3 ex:nat ex:DE .
`)
	ApplyFeature(g2, []rdf.Term{p("b")}, FeatureSpec{Op: FCOPathMaxFreq, P: p("f"), P2: p("nat"), Feature: p("mainNat")})
	if g2.Object(p("b"), p("mainNat")) != p("FR") {
		t.Errorf("maxFreq = %v", g2.Object(p("b"), p("mainNat")))
	}
}

func TestFCOErrors(t *testing.T) {
	g, ents := fcoGraph()
	if _, err := ApplyFeature(g, ents, FeatureSpec{Op: FCOPathExists, P: p("founder")}); err == nil {
		t.Error("missing P2 accepted")
	}
	if _, err := ApplyFeature(g, ents, FeatureSpec{Op: FCOValue, P: p("x")}); err == nil {
		t.Error("missing feature IRI accepted")
	}
	if _, err := ApplyFeature(g, ents, FeatureSpec{Op: FCO(99), P: p("x"), Feature: p("f")}); err == nil {
		t.Error("unknown operator accepted")
	}
}

// TestMakeFunctionalAverage is the §4.2.6 multi-valued recipe: each entity
// gets the average of its numeric values.
func TestMakeFunctionalAverage(t *testing.T) {
	g := rdf.MustLoadTurtle(`@prefix ex: <http://e/> .
ex:c ex:birthYear 1960 .
ex:c ex:birthYear 1970 .
ex:d ex:birthYear 1980 .
`)
	n := MakeFunctional(g, []rdf.Term{p("c"), p("d"), p("e")}, p("birthYear"), p("avgBirthYear"))
	if n != 2 {
		t.Fatalf("added = %d, want 2", n)
	}
	if f, _ := g.Object(p("c"), p("avgBirthYear")).Float(); f != 1965 {
		t.Errorf("avg = %v", f)
	}
	if g.Object(p("d"), p("avgBirthYear")) != rdf.NewInteger(1980) {
		t.Errorf("single value must be copied verbatim")
	}
}

// TestFeatureMakesHIFUNApplicable: after fco transformation, the derived
// feature is effectively functional, satisfying HIFUN's prerequisite.
func TestFeatureMakesHIFUNApplicable(t *testing.T) {
	g, ents := fcoGraph()
	ApplyFeature(g, ents, FeatureSpec{Op: FCOCount, P: p("founder"), Feature: p("nFounders")})
	if !rdf.EffectivelyFunctional(g, p("nFounders")) {
		t.Fatal("fco3 feature not functional")
	}
	// And a HIFUN query over the feature works.
	c := NewContext(g, "http://e/")
	ans, err := c.ExecuteText("(nFounders, ID, COUNT)")
	if err != nil {
		t.Fatal(err)
	}
	// nFounders values: 2 (brand1), 1 (brand2), 0 (brand3): 3 groups.
	if len(ans.Rows) != 3 {
		t.Fatalf("groups = %d\n%s", len(ans.Rows), ans)
	}
}

// BenchmarkDegreeFCOs times fco5 (degree) and fco6 (average degree of the
// manufacturers) over all 22 400 laptops of the 198k products graph, each
// run on a fresh clone: the paper's only features that count a term's
// incoming triples, ?s ?p <o>.
func BenchmarkDegreeFCOs(b *testing.B) {
	base := datagen.Products(datagen.ProductsConfig{Laptops: 22400, Companies: 16, Seed: 1})
	rdf.Materialize(base)
	laptops := rdf.InstancesOf(base, rdf.NewIRI(datagen.ExampleNS+"Laptop"))
	for _, spec := range []FeatureSpec{
		{Op: FCODegree, Feature: rdf.NewIRI(datagen.ExampleNS + "degree")},
		{Op: FCOAvgDegree, P: rdf.NewIRI(datagen.ExampleNS + "manufacturer"), Feature: rdf.NewIRI(datagen.ExampleNS + "makerDegree")},
	} {
		b.Run(spec.Op.String(), func(b *testing.B) {
			for range b.N {
				b.StopTimer()
				g := base.Clone()
				b.StartTimer()
				if n, err := ApplyFeature(g, laptops, spec); err != nil || n != len(laptops) {
					b.Fatalf("added %d of %d: %v", n, len(laptops), err)
				}
			}
		})
	}
}
