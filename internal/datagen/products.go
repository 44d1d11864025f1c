// Package datagen builds the synthetic RDF datasets of the reproduction:
// the products knowledge graph of the paper's running example (Fig 1.2
// schema, Fig 5.3 instances), a scalable variant of it for the efficiency
// experiments (Tables 6.1–6.2), the invoices dataset of Fig 4.1 / §2.5, and
// a small statistics dataset for the 3D-visualization example.
//
// All generators are deterministic for a given seed.
package datagen

import (
	"fmt"
	"math/rand"

	"rdfanalytics/internal/rdf"
)

// ExampleNS is the namespace of the running example (the paper uses
// http://www.ics.forth.gr/example#; we keep a short stable IRI).
const ExampleNS = "http://example.org/products#"

func pe(local string) rdf.Term { return rdf.NewIRI(ExampleNS + local) }

func typeT() rdf.Term { return rdf.NewIRI(rdf.RDFType) }

// ProductsSchema adds the RDFS schema of Fig 1.2 to g: the class hierarchy
// (Product > Laptop, Product > HDType > {SSD, NVMe}, Location > {Country,
// Continent}, Company, Person) and the property declarations with domains
// and ranges.
func ProductsSchema(g *rdf.Graph) {
	classes := []string{
		"Product", "Laptop", "HDType", "SSD", "NVMe",
		"Company", "Person", "Location", "Country", "Continent",
	}
	for _, c := range classes {
		g.Add(rdf.Triple{S: pe(c), P: typeT(), O: rdf.NewIRI(rdf.RDFSClass)})
	}
	sub := func(c, parent string) {
		g.Add(rdf.Triple{S: pe(c), P: rdf.NewIRI(rdf.RDFSSubClassOf), O: pe(parent)})
	}
	sub("Laptop", "Product")
	sub("HDType", "Product")
	sub("SSD", "HDType")
	sub("NVMe", "HDType")
	sub("Country", "Location")
	sub("Continent", "Location")
	props := []struct{ name, domain, rang string }{
		{"releaseDate", "Laptop", ""},
		{"price", "Laptop", ""},
		{"USBPorts", "Laptop", ""},
		{"manufacturer", "Product", "Company"},
		{"hardDrive", "Laptop", "HDType"},
		{"origin", "Company", "Country"},
		{"founder", "Company", "Person"},
		{"size", "Company", ""},
		{"birthplace", "Person", "Country"},
		{"locatedAt", "Country", "Continent"},
		{"GDPPerCapita", "Country", ""},
	}
	for _, p := range props {
		g.Add(rdf.Triple{S: pe(p.name), P: typeT(), O: rdf.NewIRI(rdf.RDFProperty)})
		if p.domain != "" {
			g.Add(rdf.Triple{S: pe(p.name), P: rdf.NewIRI(rdf.RDFSDomain), O: pe(p.domain)})
		}
		if p.rang != "" {
			g.Add(rdf.Triple{S: pe(p.name), P: rdf.NewIRI(rdf.RDFSRange), O: pe(p.rang)})
		}
	}
}

// SmallProducts builds exactly the instance data of Fig 5.3 (plus the
// schema): 3 laptops, 3 hard drives, 4 companies, 3 persons, 3 countries,
// 2 continents. The facet-tree tests of Fig 5.4 assert its exact counts.
func SmallProducts() *rdf.Graph {
	g := rdf.NewGraph()
	ProductsSchema(g)
	add := func(s, p string, o rdf.Term) {
		g.Add(rdf.Triple{S: pe(s), P: pe(p), O: o})
	}
	typ := func(s, c string) {
		g.Add(rdf.Triple{S: pe(s), P: typeT(), O: pe(c)})
	}
	// Continents and countries.
	typ("Asia", "Continent")
	typ("NorthAmerica", "Continent")
	for _, c := range []struct {
		name, continent string
		gdp             int64
	}{
		{"USA", "NorthAmerica", 70000},
		{"China", "Asia", 12000},
		{"Singapore", "Asia", 72000},
	} {
		typ(c.name, "Country")
		add(c.name, "locatedAt", pe(c.continent))
		add(c.name, "GDPPerCapita", rdf.NewInteger(c.gdp))
	}
	// Persons.
	for _, p := range []struct{ name, birthplace string }{
		{"MichaelDell", "USA"},
		{"LiuChuanzhi", "China"},
		{"JamesMcCoy", "USA"},
	} {
		typ(p.name, "Person")
		add(p.name, "birthplace", pe(p.birthplace))
	}
	// Companies.
	for _, c := range []struct {
		name, origin, founder string
		size                  int64
	}{
		{"DELL", "USA", "MichaelDell", 133000},
		{"Lenovo", "China", "LiuChuanzhi", 71500},
		{"Maxtor", "Singapore", "JamesMcCoy", 9000},
		{"AVDElectronics", "USA", "", 1200},
	} {
		typ(c.name, "Company")
		add(c.name, "origin", pe(c.origin))
		add(c.name, "size", rdf.NewInteger(c.size))
		if c.founder != "" {
			add(c.name, "founder", pe(c.founder))
		}
	}
	// Hard drives (products in their own right).
	for _, h := range []struct{ name, class, maker string }{
		{"SSD1", "SSD", "Maxtor"},
		{"SSD2", "SSD", "AVDElectronics"},
		{"NVMe1", "NVMe", "Maxtor"},
	} {
		typ(h.name, h.class)
		add(h.name, "manufacturer", pe(h.maker))
	}
	// Laptops (Fig 5.3/5.4: DELL(2), Lenovo(1); USB 2(2)/4(1); the three
	// 2021 release dates; prices as in Fig 5.2).
	for _, l := range []struct {
		name, maker, hd, date string
		usb, price            int64
	}{
		{"laptop1", "DELL", "SSD1", "2021-06-10", 2, 900},
		{"laptop2", "DELL", "SSD2", "2021-09-03", 4, 1000},
		{"laptop3", "Lenovo", "NVMe1", "2021-10-10", 2, 820},
	} {
		typ(l.name, "Laptop")
		add(l.name, "manufacturer", pe(l.maker))
		add(l.name, "hardDrive", pe(l.hd))
		add(l.name, "releaseDate", rdf.NewTyped(l.date, rdf.XSDDate))
		add(l.name, "USBPorts", rdf.NewInteger(l.usb))
		add(l.name, "price", rdf.NewInteger(l.price))
	}
	return g
}

// ProductsConfig parameterizes the scalable products generator.
type ProductsConfig struct {
	Laptops   int
	Companies int
	Seed      int64
	// Materialize runs RDFS inference after generation.
	Materialize bool
}

// DefaultProducts is the configuration used by the quickstart example.
var DefaultProducts = ProductsConfig{Laptops: 200, Companies: 12, Seed: 1, Materialize: true}

var countryPool = []struct {
	name, continent string
	gdp             int64
}{
	{"USA", "NorthAmerica", 70000},
	{"China", "Asia", 12000},
	{"Singapore", "Asia", 72000},
	{"Japan", "Asia", 40000},
	{"Germany", "Europe", 51000},
	{"SouthKorea", "Asia", 35000},
	{"Taiwan", "Asia", 33000},
	{"France", "Europe", 44000},
}

// Products generates a synthetic products KG following the Fig 1.2 schema
// at the requested scale. Laptops get a manufacturer, hard drive (with its
// own manufacturer chain), release date in 2019–2023, 1–5 USB ports and a
// price; companies get origins, founders and sizes. Deterministic per seed.
func Products(cfg ProductsConfig) *rdf.Graph {
	if cfg.Laptops <= 0 {
		cfg.Laptops = DefaultProducts.Laptops
	}
	if cfg.Companies <= 0 {
		cfg.Companies = DefaultProducts.Companies
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := rdf.NewGraph()
	ProductsSchema(g)
	load, flush := chunked(g)
	add := func(s, p string, o rdf.Term) {
		load(rdf.Triple{S: pe(s), P: pe(p), O: o})
	}
	typ := func(s, c string) {
		load(rdf.Triple{S: pe(s), P: typeT(), O: pe(c)})
	}
	continents := map[string]bool{}
	for _, c := range countryPool {
		typ(c.name, "Country")
		add(c.name, "locatedAt", pe(c.continent))
		add(c.name, "GDPPerCapita", rdf.NewInteger(c.gdp))
		if !continents[c.continent] {
			continents[c.continent] = true
			typ(c.continent, "Continent")
		}
	}
	// Companies: half laptop makers, half component makers.
	companies := make([]string, cfg.Companies)
	for i := range companies {
		name := fmt.Sprintf("Company%d", i+1)
		companies[i] = name
		typ(name, "Company")
		country := countryPool[rng.Intn(len(countryPool))]
		add(name, "origin", pe(country.name))
		add(name, "size", rdf.NewInteger(int64(100+rng.Intn(150000))))
		founder := fmt.Sprintf("Founder%d", i+1)
		typ(founder, "Person")
		add(founder, "birthplace", pe(countryPool[rng.Intn(len(countryPool))].name))
		add(name, "founder", pe(founder))
	}
	laptopMakers := companies[:(len(companies)+1)/2]
	hdMakers := companies[len(companies)/2:]
	hdClasses := []string{"SSD", "NVMe", "HDType"}
	// Hard drives: one per ~2 laptops.
	nHD := cfg.Laptops/2 + 1
	hds := make([]string, nHD)
	for i := range hds {
		name := fmt.Sprintf("hd%d", i+1)
		hds[i] = name
		typ(name, hdClasses[rng.Intn(len(hdClasses))])
		add(name, "manufacturer", pe(hdMakers[rng.Intn(len(hdMakers))]))
	}
	for i := 0; i < cfg.Laptops; i++ {
		name := fmt.Sprintf("laptop%d", i+1)
		typ(name, "Laptop")
		add(name, "manufacturer", pe(laptopMakers[rng.Intn(len(laptopMakers))]))
		add(name, "hardDrive", pe(hds[rng.Intn(len(hds))]))
		year := 2019 + rng.Intn(5)
		month := 1 + rng.Intn(12)
		day := 1 + rng.Intn(28)
		add(name, "releaseDate", rdf.NewTyped(
			fmt.Sprintf("%04d-%02d-%02d", year, month, day), rdf.XSDDate))
		add(name, "USBPorts", rdf.NewInteger(int64(1+rng.Intn(5))))
		add(name, "price", rdf.NewInteger(int64(500+rng.Intn(1500))))
	}
	flush()
	if cfg.Materialize {
		rdf.Materialize(g)
	}
	return g
}

// loadChunk is how many generated triples wait between two AddAll calls: far
// past the size from which the graph sorts a batch in instead of inserting it
// triple by triple, while the buffer (168 B a Triple, ≈5 MB) stays small.
const loadChunk = 32 << 10

// chunked returns add, which hands the triples it is given to g.AddAll a chunk
// at a time in the order they came, and flush for the last ones.
func chunked(g *rdf.Graph) (add func(rdf.Triple), flush func()) {
	var ts []rdf.Triple
	flush = func() {
		g.AddAll(ts)
		ts = ts[:0]
	}
	return func(t rdf.Triple) {
		if ts = append(ts, t); len(ts) == loadChunk {
			flush()
		}
	}, flush
}
