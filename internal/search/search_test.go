package search

import (
	"reflect"
	"testing"

	"rdfanalytics/internal/core"
	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/rdf"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"laptop-1 (DELL)", []string{"laptop", "dell"}},
		{"", nil},
		{"a", nil}, // single chars dropped
		{"USB 2.0 ports", []string{"usb", "ports"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCamelSplit(t *testing.T) {
	got := camelTokens("SouthKorea")
	if !reflect.DeepEqual(got, []string{"south", "korea"}) {
		t.Errorf("camelTokens = %v", got)
	}
}

func TestSearchByLocalName(t *testing.T) {
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	idx := Build(g)
	hits := idx.Search("dell", 10)
	if len(hits) == 0 {
		t.Fatal("no hits for 'dell'")
	}
	if hits[0].Resource != rdf.NewIRI(datagen.ExampleNS+"DELL") {
		t.Errorf("top hit = %v", hits[0].Resource)
	}
	// MichaelDell also matches (camel split) but ranks below DELL itself.
	foundFounder := false
	for _, h := range hits {
		if h.Resource == rdf.NewIRI(datagen.ExampleNS+"MichaelDell") {
			foundFounder = true
		}
	}
	if !foundFounder {
		t.Error("camel-split match MichaelDell missing")
	}
}

func TestSearchByLiteral(t *testing.T) {
	g := rdf.MustLoadTurtle(`@prefix ex: <http://e/> .
ex:p1 ex:label "wireless gaming mouse" .
ex:p2 ex:label "wired office keyboard" .
ex:p3 ex:label "gaming keyboard with wrist rest" .
`)
	idx := Build(g)
	hits := idx.Search("gaming keyboard", 10)
	if len(hits) != 3 {
		t.Fatalf("hits = %v", hits)
	}
	// p3 matches both tokens: must rank first.
	if hits[0].Resource != rdf.NewIRI("http://e/p3") {
		t.Errorf("top hit = %v", hits[0].Resource)
	}
}

func TestSearchNoMatch(t *testing.T) {
	g := datagen.SmallProducts()
	idx := Build(g)
	if hits := idx.Search("zzzznothing", 10); len(hits) != 0 {
		t.Errorf("hits = %v", hits)
	}
}

func TestSearchLimitAndDeterminism(t *testing.T) {
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	idx := Build(g)
	a := idx.Search("laptop", 2)
	b := idx.Search("laptop", 2)
	if len(a) != 2 || !reflect.DeepEqual(a, b) {
		t.Errorf("limit/determinism: %v vs %v", a, b)
	}
}

// TestSearchSeedsSession is the §5.4.1 integration: keyword results start a
// faceted-analytics session, and analytics over them work.
func TestSearchSeedsSession(t *testing.T) {
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	idx := Build(g)
	hits := idx.Search("laptop", 0)
	var laptops []rdf.Term
	for _, h := range hits {
		// keep only instances (drop the class itself if present)
		if g.Has(rdf.Triple{S: h.Resource, P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI(datagen.ExampleNS + "Laptop")}) {
			laptops = append(laptops, h.Resource)
		}
	}
	if len(laptops) != 3 {
		t.Fatalf("laptops from search: %v", laptops)
	}
	s := core.NewSessionFrom(g, datagen.ExampleNS, laptops)
	s.ClickAggregate(core.MeasureSpec{Path: facet.Path{{P: rdf.NewIRI(datagen.ExampleNS + "price")}}},
		hifun.Operation{Op: hifun.OpSum})
	ans, err := s.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := ans.Rows()[0][0].Int(); n != 2720 {
		t.Errorf("sum over search results = %v", ans.Rows()[0][0])
	}
}

func BenchmarkBuildAndSearch(b *testing.B) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 1000, Companies: 20, Seed: 1})
	b.Run("build", func(b *testing.B) {
		for b.Loop() {
			Build(g)
		}
	})
	idx := Build(g)
	b.Run("search", func(b *testing.B) {
		for b.Loop() {
			idx.Search("laptop company", 20)
		}
	})
}
