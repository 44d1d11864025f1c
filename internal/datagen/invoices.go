package datagen

import (
	"fmt"
	"math/rand"

	"rdfanalytics/internal/rdf"
)

// InvoicesNS is the namespace of the invoices dataset (Fig 4.1 / §2.5).
const InvoicesNS = "http://example.org/invoices#"

func ie(local string) rdf.Term { return rdf.NewIRI(InvoicesNS + local) }

// SmallInvoices builds the seven-invoice dataset of §2.5 / Fig 2.8 with the
// exact branch/quantity assignment the paper uses in its worked HIFUN
// evaluation (b1: 200+100, b2: 200+400, b3: 100+400+100).
func SmallInvoices() *rdf.Graph {
	g := rdf.NewGraph()
	g.Add(rdf.Triple{S: ie("Invoice"), P: typeT(), O: rdf.NewIRI(rdf.RDFSClass)})
	g.Add(rdf.Triple{S: ie("Branch"), P: typeT(), O: rdf.NewIRI(rdf.RDFSClass)})
	g.Add(rdf.Triple{S: ie("ProductType"), P: typeT(), O: rdf.NewIRI(rdf.RDFSClass)})
	rows := []struct {
		branch, product, date string
		qty                   int64
	}{
		{"branch1", "CocaLight", "2021-01-10", 200},
		{"branch1", "PepsiMax", "2021-01-20", 100},
		{"branch2", "CocaLight", "2021-02-05", 200},
		{"branch2", "CocaLight", "2021-02-14", 400},
		{"branch3", "Fanta", "2021-03-01", 100},
		{"branch3", "CocaLight", "2021-03-02", 400},
		{"branch3", "PepsiMax", "2021-01-30", 100},
	}
	brands := map[string]string{"CocaLight": "CocaCola", "Fanta": "CocaCola", "PepsiMax": "PepsiCo"}
	seenProd := map[string]bool{}
	for i, r := range rows {
		inv := fmt.Sprintf("invoice%d", i+1)
		g.Add(rdf.Triple{S: ie(inv), P: typeT(), O: ie("Invoice")})
		g.Add(rdf.Triple{S: ie(inv), P: ie("takesPlaceAt"), O: ie(r.branch)})
		g.Add(rdf.Triple{S: ie(inv), P: ie("delivers"), O: ie(r.product)})
		g.Add(rdf.Triple{S: ie(inv), P: ie("hasDate"), O: rdf.NewTyped(r.date, rdf.XSDDate)})
		g.Add(rdf.Triple{S: ie(inv), P: ie("inQuantity"), O: rdf.NewInteger(r.qty)})
		g.Add(rdf.Triple{S: ie(r.branch), P: typeT(), O: ie("Branch")})
		if !seenProd[r.product] {
			seenProd[r.product] = true
			g.Add(rdf.Triple{S: ie(r.product), P: typeT(), O: ie("ProductType")})
			g.Add(rdf.Triple{S: ie(r.product), P: ie("brand"), O: ie(brands[r.product])})
		}
	}
	return g
}

// InvoicesConfig parameterizes the scalable invoices generator.
type InvoicesConfig struct {
	Invoices int
	Branches int
	Products int
	Brands   int
	Seed     int64
	// Timestamps additionally emits a hasTimestamp xsd:dateTime per invoice
	// with a timezone offset that varies across invoices — data whose lexical
	// order differs from its time-line order, for exercising temporal
	// comparison and ordering.
	Timestamps bool
}

// Invoices generates a year of delivery invoices: each invoice has a branch,
// a product (with brand), a date in 2021 and a quantity. Deterministic per
// seed. Used by the efficiency benchmarks at multiple scales.
func Invoices(cfg InvoicesConfig) *rdf.Graph {
	if cfg.Invoices <= 0 {
		cfg.Invoices = 1000
	}
	if cfg.Branches <= 0 {
		cfg.Branches = 10
	}
	if cfg.Products <= 0 {
		cfg.Products = 50
	}
	if cfg.Brands <= 0 {
		cfg.Brands = 8
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := rdf.NewGraph()
	add, flush := chunked(g)
	for b := 0; b < cfg.Branches; b++ {
		add(rdf.Triple{S: ie(fmt.Sprintf("branch%d", b+1)), P: typeT(), O: ie("Branch")})
	}
	for p := 0; p < cfg.Products; p++ {
		prod := ie(fmt.Sprintf("product%d", p+1))
		add(rdf.Triple{S: prod, P: typeT(), O: ie("ProductType")})
		add(rdf.Triple{S: prod, P: ie("brand"), O: ie(fmt.Sprintf("Brand%d", 1+p%cfg.Brands))})
	}
	for i := 0; i < cfg.Invoices; i++ {
		inv := ie(fmt.Sprintf("invoice%d", i+1))
		add(rdf.Triple{S: inv, P: typeT(), O: ie("Invoice")})
		add(rdf.Triple{S: inv, P: ie("takesPlaceAt"),
			O: ie(fmt.Sprintf("branch%d", 1+rng.Intn(cfg.Branches)))})
		add(rdf.Triple{S: inv, P: ie("delivers"),
			O: ie(fmt.Sprintf("product%d", 1+rng.Intn(cfg.Products)))})
		month := 1 + rng.Intn(12)
		day := 1 + rng.Intn(28)
		add(rdf.Triple{S: inv, P: ie("hasDate"),
			O: rdf.NewTyped(fmt.Sprintf("2021-%02d-%02d", month, day), rdf.XSDDate)})
		add(rdf.Triple{S: inv, P: ie("inQuantity"),
			O: rdf.NewInteger(int64(10 * (1 + rng.Intn(60))))})
		if cfg.Timestamps {
			// Drawn only when enabled so existing seeds keep their streams.
			offsets := []string{"Z", "+05:00", "+01:00", "-04:00", "-11:00"}
			add(rdf.Triple{S: inv, P: ie("hasTimestamp"),
				O: rdf.NewTyped(fmt.Sprintf("2021-%02d-%02dT%02d:%02d:00%s",
					month, day, rng.Intn(24), rng.Intn(60), offsets[rng.Intn(len(offsets))]),
					rdf.XSDDateTime)})
		}
	}
	flush()
	return g
}

// StatsNS is the namespace of the country-statistics dataset used by the 3D
// visualization example (§6.3).
const StatsNS = "http://example.org/stats#"

// CountryStats generates a small statistics dataset in the shape the 3D
// "urban area" visualization consumes: each country is an entity with a few
// numeric features whose magnitudes follow a power-law-ish spread.
func CountryStats() *rdf.Graph {
	g := rdf.NewGraph()
	se := func(l string) rdf.Term { return rdf.NewIRI(StatsNS + l) }
	countries := []struct {
		name                     string
		cases, deaths, recovered int64
	}{
		{"USA", 103000000, 1120000, 100500000},
		{"India", 44700000, 530000, 44100000},
		{"France", 38900000, 167000, 38600000},
		{"Germany", 38400000, 174000, 38100000},
		{"Brazil", 37100000, 699000, 36200000},
		{"Japan", 33300000, 74000, 32900000},
		{"SouthKorea", 30600000, 34000, 30500000},
		{"Italy", 25600000, 190000, 25300000},
		{"UK", 24400000, 220000, 24100000},
		{"Russia", 22900000, 399000, 22200000},
		{"Greece", 5530000, 37000, 5480000},
		{"Singapore", 2500000, 1700, 2490000},
	}
	for _, c := range countries {
		s := se(c.name)
		g.Add(rdf.Triple{S: s, P: typeT(), O: se("Country")})
		g.Add(rdf.Triple{S: s, P: se("cases"), O: rdf.NewInteger(c.cases)})
		g.Add(rdf.Triple{S: s, P: se("deaths"), O: rdf.NewInteger(c.deaths)})
		g.Add(rdf.Triple{S: s, P: se("recovered"), O: rdf.NewInteger(c.recovered)})
	}
	return g
}
