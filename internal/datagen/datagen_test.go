package datagen

import (
	"testing"

	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

func TestSmallProductsCounts(t *testing.T) {
	g := SmallProducts()
	rdf.Materialize(g)
	// Fig 5.4 (a): Company (4), Location (5), Person (3), Product (6).
	counts := map[string]int{
		"Company": 4, "Location": 5, "Person": 3, "Product": 6,
		"Laptop": 3, "HDType": 3, "SSD": 2, "NVMe": 1,
		"Country": 3, "Continent": 2,
	}
	for cls, want := range counts {
		got := len(rdf.InstancesOf(g, rdf.NewIRI(ExampleNS+cls)))
		if got != want {
			t.Errorf("instances of %s = %d, want %d", cls, got, want)
		}
	}
}

func TestSmallProductsFig55Paths(t *testing.T) {
	g := SmallProducts()
	rdf.Materialize(g)
	// Fig 5.5 (b): hard-drive manufacturers Maxtor (2), AVDElectronics (1).
	res, err := sparql.Select(g, `PREFIX ex: <`+ExampleNS+`>
SELECT ?m (COUNT(?hd) AS ?n) WHERE {
  ?l a ex:Laptop . ?l ex:hardDrive ?hd . ?hd ex:manufacturer ?m .
} GROUP BY ?m`)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"Maxtor": "2", "AVDElectronics": "1"}
	for i := range res.Rows {
		m, n := res.Get(i, "m").LocalName(), res.Get(i, "n").Value
		if w := want[m]; w != n {
			t.Errorf("%s: %s, want %s", m, n, w)
		}
	}
	if res.Len() != 2 {
		t.Errorf("groups = %d", res.Len())
	}
}

// TestPaperFig13EndToEnd runs the headline query of Fig 1.3 against a graph
// seeded so the answer is non-empty: average price of laptops made in 2021
// by US companies with >=2 USB ports and an SSD manufactured in Asia.
func TestPaperFig13EndToEnd(t *testing.T) {
	g := SmallProducts()
	rdf.Materialize(g)
	res, err := sparql.Select(g, `PREFIX ex: <`+ExampleNS+`>
SELECT ?m (AVG(?p) AS ?avgprice)
WHERE {
  ?s a ex:Laptop.
  ?s ex:manufacturer ?m.
  ?m ex:origin ex:USA.
  ?s ex:price ?p.
  ?s ex:USBPorts ?u.
  ?s ex:hardDrive ?hd.
  ?hd a ex:SSD.
  ?hd ex:manufacturer ?hdm.
  ?hdm ex:origin ?hdmc.
  ?hdmc ex:locatedAt ex:Asia.
  FILTER (?u >= 2).
  ?s ex:releaseDate ?rd .
  FILTER ( ?rd >= "2021-01-01"^^xsd:date && ?rd <= "2021-12-31"^^xsd:date)
} GROUP BY ?m`)
	if err != nil {
		t.Fatal(err)
	}
	// laptop1 (DELL, SSD1 by Maxtor in Singapore/Asia, 2 USB, 2021) matches.
	if res.Len() != 1 {
		t.Fatalf("groups = %d, want 1\n%s", res.Len(), res)
	}
	if res.Get(0, "m").LocalName() != "DELL" {
		t.Errorf("manufacturer = %v", res.Get(0, "m"))
	}
	if f, _ := res.Get(0, "avgprice").Float(); f != 900 {
		t.Errorf("avgprice = %v, want 900", res.Get(0, "avgprice"))
	}
}

func TestProductsScalableDeterministic(t *testing.T) {
	a := Products(ProductsConfig{Laptops: 50, Companies: 6, Seed: 42})
	b := Products(ProductsConfig{Laptops: 50, Companies: 6, Seed: 42})
	if a.Len() != b.Len() {
		t.Fatalf("same seed, different sizes: %d vs %d", a.Len(), b.Len())
	}
	at, bt := a.Triples(), b.Triples()
	for i := range at {
		if at[i] != bt[i] {
			t.Fatalf("same seed, different triple at %d", i)
		}
	}
	c := Products(ProductsConfig{Laptops: 50, Companies: 6, Seed: 43})
	if c.Len() == a.Len() {
		// sizes can coincide; compare content
		same := true
		ct := c.Triples()
		for i := range at {
			if at[i] != ct[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestProductsScalableWellFormed(t *testing.T) {
	g := Products(ProductsConfig{Laptops: 100, Companies: 8, Seed: 7, Materialize: true})
	laptops := rdf.InstancesOf(g, rdf.NewIRI(ExampleNS+"Laptop"))
	if len(laptops) != 100 {
		t.Fatalf("laptops = %d", len(laptops))
	}
	// Every laptop has exactly one price, manufacturer, release date.
	for _, p := range []string{"price", "manufacturer", "releaseDate", "USBPorts", "hardDrive"} {
		for _, l := range laptops {
			objs := g.Objects(l, rdf.NewIRI(ExampleNS+p))
			if len(objs) != 1 {
				t.Fatalf("laptop %v has %d values for %s", l, len(objs), p)
			}
		}
	}
	// Inference: laptops are Products.
	products := rdf.InstancesOf(g, rdf.NewIRI(ExampleNS+"Product"))
	if len(products) < 100 {
		t.Errorf("products = %d, want >= 100 (laptops inherit)", len(products))
	}
}

func TestSmallInvoicesPaperTotals(t *testing.T) {
	g := SmallInvoices()
	res, err := sparql.Select(g, `PREFIX ex: <`+InvoicesNS+`>
SELECT ?b (SUM(?q) AS ?total) WHERE {
  ?i ex:takesPlaceAt ?b . ?i ex:inQuantity ?q .
} GROUP BY ?b`)
	if err != nil {
		t.Fatal(err)
	}
	// §2.5: b1=300, b2=600, b3=600.
	want := map[string]int64{"branch1": 300, "branch2": 600, "branch3": 600}
	for i := range res.Rows {
		b := res.Get(i, "b").LocalName()
		if n, _ := res.Get(i, "total").Int(); n != want[b] {
			t.Errorf("%s total = %d", b, n)
		}
	}
	if res.Len() != 3 {
		t.Fatalf("groups = %d", res.Len())
	}
}

func TestInvoicesScalable(t *testing.T) {
	g := Invoices(InvoicesConfig{Invoices: 500, Branches: 5, Products: 20, Brands: 4, Seed: 3})
	// 500 invoices x 5 triples + 5 branches + 20 products x 2
	wantMin := 500*5 + 5 + 40
	if g.Len() != wantMin {
		t.Fatalf("triples = %d, want %d", g.Len(), wantMin)
	}
	// quantities are positive multiples of 10
	bad := 0
	g.Match(rdf.Any, rdf.NewIRI(InvoicesNS+"inQuantity"), rdf.Any, func(t rdf.Triple) bool {
		n, ok := t.O.Int()
		if !ok || n <= 0 || n%10 != 0 {
			bad++
		}
		return true
	})
	if bad > 0 {
		t.Errorf("%d malformed quantities", bad)
	}
}

func TestCountryStats(t *testing.T) {
	g := CountryStats()
	countries := rdf.InstancesOf(g, rdf.NewIRI(StatsNS+"Country"))
	if len(countries) != 12 {
		t.Fatalf("countries = %d", len(countries))
	}
	for _, c := range countries {
		if g.Object(c, rdf.NewIRI(StatsNS+"cases")).IsZero() {
			t.Errorf("%v missing cases", c)
		}
	}
}

func BenchmarkProductsGeneration(b *testing.B) {
	for b.Loop() {
		Products(ProductsConfig{Laptops: 1000, Companies: 20, Seed: 1})
	}
}
