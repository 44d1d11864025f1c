package datagen

import (
	"crypto/sha256"
	"encoding/hex"
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

// TestLoadDigests pins what a load produces — the snapshot bytes (dictionary
// IDs included), the per-rule inference counts and the version — to the
// values recorded at the commit where every triple still entered the graph
// through Graph.Add and Materialize ran on terms. A loader or closure change
// that alters an ID, a triple, a rule's attribution or the number of
// effective adds fails here before it reaches the benchmark's fingerprints.
func TestLoadDigests(t *testing.T) {
	sub := func(n int) rdf.InferenceStats {
		return rdf.InferenceStats{TypeFromSubClass: n, SubClassTransitive: 2}
	}
	for _, c := range []struct {
		name    string
		load    func() *rdf.Graph
		big     bool
		digest  string
		stats   rdf.InferenceStats
		version uint64
	}{
		{"products-120", func() *rdf.Graph { return Products(ProductsConfig{Laptops: 120, Companies: 16, Seed: 1}) }, false,
			"9f5d88a7c103f6922e9ac470bf5ee69f6c284de1268a199b5f33bf57ebc52289", sub(235), 1246},
		{"products-11200", func() *rdf.Graph { return Products(ProductsConfig{Laptops: 11200, Companies: 16, Seed: 1}) }, false,
			"f2c97799c75589ebb5bf518ce4bd7f755038ec12e0212825721e51978a706c85", sub(20530), 99101},
		{"products-22400", func() *rdf.Graph { return Products(ProductsConfig{Laptops: 22400, Companies: 16, Seed: 1}) }, true,
			"fccf852c3868f4ff5655148c1ff6ab974d2c1940d117fa5c2efe926c5e55d9e7", sub(41011), 197982},
		{"invoices-5000", func() *rdf.Graph { return Invoices(InvoicesConfig{Invoices: 5000, Seed: 1, Timestamps: true}) }, false,
			"e80df9313c30f990b0e2e39b7b8b3bfcf4f58a3b90b481c72432a78679d0dc81", rdf.InferenceStats{}, 30110},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.big && testing.Short() {
				t.Skip("loads 198k triples")
			}
			g := c.load()
			stats := rdf.Materialize(g)
			h := sha256.New()
			if err := g.WriteBinary(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.digest {
				t.Errorf("WriteBinary SHA-256 = %s, recorded %s", got, c.digest)
			}
			if stats != c.stats {
				t.Errorf("InferenceStats = %+v, recorded %+v", stats, c.stats)
			}
			if g.Version() != c.version {
				t.Errorf("Version = %d, recorded %d", g.Version(), c.version)
			}
		})
	}
}
