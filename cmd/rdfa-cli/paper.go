package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"rdfanalytics/internal/bench"
	"rdfanalytics/internal/core"
	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
	"rdfanalytics/internal/viz"
)

// paper prints the paper's tables and figures that are reproducible without
// participants (E1–E7, E10, E11 of the experiment index in DESIGN.md): the
// running-example queries, the HIFUN→SPARQL translation cases, the facet
// trees, the §5.1 interaction walk-throughs, the efficiency tables (Tables
// 6.1–6.2), the OLAP correspondence (Fig 7.1–7.2), the evaluation-strategy
// ablation and the spiral/3D layouts. It measures nothing for the record —
// performance claims go through the standing benchmark (benchmark/README.md).
type paper struct {
	out    io.Writer
	quick  bool   // reduced scales / repetitions
	outDir string // where E11 writes its artifacts; "" is a fresh temp dir
}

type experiment struct {
	id  string
	run func(*paper) error
}

// experiments in print order; E8/E9 (the user study) need participants and
// E13–E14 are standing-benchmark metrics (EXPERIMENTS.md).
var experiments = []experiment{
	{"E1", (*paper).e1}, {"E2", (*paper).e2}, {"E3", (*paper).e3}, {"E4", (*paper).e4},
	{"E5", (*paper).e5}, {"E6", (*paper).e6}, {"E7", (*paper).e7}, {"E10", (*paper).e10},
	{"E11", (*paper).e11},
}

// paperCommand runs the experiments named as arguments, or all of them:
//
//	rdfa-cli paper              print everything
//	rdfa-cli paper -quick E5    one experiment, reduced scales
func paperCommand(fs *flag.FlagSet) func(io.Reader, io.Writer, io.Writer) error {
	p := &paper{}
	fs.BoolVar(&p.quick, "quick", false, "reduced scales / repetitions")
	fs.StringVar(&p.outDir, "out", "", "directory for the SVG/JSON artifacts of E11 (default: a fresh directory under the system temp dir)")
	return func(_ io.Reader, out, _ io.Writer) error {
		p.out = out
		run := experiments
		if fs.NArg() > 0 {
			run = nil
			for _, id := range fs.Args() {
				i := slices.IndexFunc(experiments, func(e experiment) bool { return strings.EqualFold(e.id, id) })
				if i < 0 {
					return fmt.Errorf("unknown experiment %q (want E1..E7, E10 or E11)", id)
				}
				run = append(run, experiments[i])
			}
		}
		for _, e := range run {
			fmt.Fprintf(out, "\n================ %s ================\n", e.id)
			if err := e.run(p); err != nil {
				return fmt.Errorf("%s: %w", e.id, err)
			}
		}
		return nil
	}
}

// E1 — the running-example SPARQL queries of Fig 1.3 and Fig 2.6.
func (p *paper) e1() error {
	g, ns, err := datagen.Load("products-small", 0)
	if err != nil {
		return err
	}
	fig13 := `PREFIX ex: <` + ns + `>
SELECT ?m (AVG(?p) AS ?avgprice)
WHERE {
  ?s a ex:Laptop. ?s ex:manufacturer ?m. ?m ex:origin ex:USA.
  ?s ex:price ?p. ?s ex:USBPorts ?u. ?s ex:hardDrive ?hd.
  ?hd a ex:SSD. ?hd ex:manufacturer ?hdm. ?hdm ex:origin ?hdmc.
  ?hdmc ex:locatedAt ex:Asia.
  FILTER (?u >= 2).
  ?s ex:releaseDate ?rd .
  FILTER ( ?rd >= "2021-01-01"^^xsd:date && ?rd <= "2021-12-31"^^xsd:date)
} GROUP BY ?m`
	fig26 := `PREFIX ex: <` + ns + `>
SELECT ?m (COUNT(?p) AS ?total_products)
WHERE { ?p a ex:Product. ?p ex:manufacturer ?m. } GROUP BY ?m`
	for _, fig := range []struct{ name, query string }{{"Fig 1.3", fig13}, {"Fig 2.6", fig26}} {
		res, err := sparql.Select(g, fig.query)
		if err != nil {
			return fmt.Errorf("%s: %w", fig.name, err)
		}
		res.Sort()
		fmt.Fprintf(p.out, "-- %s --\n%s\n", fig.name, res)
	}
	return nil
}

// E2 — the HIFUN→SPARQL translation cases of §4.2.
func (p *paper) e2() error {
	_, ns, err := datagen.Load("invoices-small", 0)
	if err != nil {
		return err
	}
	ctx := hifun.NewContext(nil, ns)
	cases := []string{
		"(takesPlaceAt, inQuantity, SUM)",
		"(takesPlaceAt/branch1, inQuantity, SUM)",
		"(takesPlaceAt, inQuantity/>=1, SUM)",
		"(takesPlaceAt, inQuantity, SUM/>1000)",
		"(brand.delivers, inQuantity, SUM)",
		"(month.hasDate, inQuantity, SUM)",
		"(takesPlaceAt & delivers, inQuantity, SUM)",
		"(takesPlaceAt & (brand.delivers)/month.hasDate=1, inQuantity/>=2, SUM/>1000)",
	}
	for _, src := range cases {
		q, err := hifun.Parse(src, ns)
		if err != nil {
			return err
		}
		out, err := ctx.Translator().Translate(q)
		if err != nil {
			return err
		}
		fmt.Fprintf(p.out, "-- HIFUN: %s\n%s\n\n", src, out)
	}
	return nil
}

// E3 — the transition-marker trees of Fig 5.4 / 5.5.
func (p *paper) e3() error {
	g, ns, err := datagen.Load("products-small", 0)
	if err != nil {
		return err
	}
	s := core.NewSession(g, ns)
	fmt.Fprintln(p.out, "-- Fig 5.4 (a,b): class-based transition markers --")
	fmt.Fprint(p.out, s.ComputeUIState(0, false).RenderText())
	s.ClickClass(rdf.NewIRI(ns + "Laptop"))
	fmt.Fprintln(p.out, "\n-- Fig 5.4 (c): property-based markers for class Laptop --")
	fmt.Fprint(p.out, s.ComputeUIState(0, false).RenderText())
	fmt.Fprintln(p.out, "\n-- Fig 5.5 (b): path expansions --")
	for _, path := range []facet.Path{
		{{P: rdf.NewIRI(ns + "manufacturer")}, {P: rdf.NewIRI(ns + "origin")}},
		{{P: rdf.NewIRI(ns + "hardDrive")}, {P: rdf.NewIRI(ns + "manufacturer")}},
		{{P: rdf.NewIRI(ns + "hardDrive")}, {P: rdf.NewIRI(ns + "manufacturer")}, {P: rdf.NewIRI(ns + "origin")}},
	} {
		fmt.Fprintf(p.out, "  by %s:\n", path)
		for _, vc := range s.Model().Decode(s.Model().ExpandPath(s.State(), path)) {
			fmt.Fprintf(p.out, "    %s (%d)\n", vc.Value.LocalName(), vc.Count)
		}
	}
	return nil
}

// E4 — the four interaction walk-throughs of §5.1, end to end.
func (p *paper) e4() error {
	g, ns, err := datagen.Load("products-small", 0)
	if err != nil {
		return err
	}
	pe := func(l string) rdf.Term { return rdf.NewIRI(ns + l) }
	// Example 1.
	s := core.NewSession(g.Clone(), ns)
	s.ClickClass(pe("Laptop"))
	s.ClickRange(facet.Path{{P: pe("releaseDate")}}, ">=", rdf.NewTyped("2021-01-01", rdf.XSDDate))
	s.ClickRange(facet.Path{{P: pe("releaseDate")}}, "<=", rdf.NewTyped("2021-12-31", rdf.XSDDate))
	s.ClickValue(facet.Path{{P: pe("manufacturer")}, {P: pe("origin")}}, pe("USA"))
	s.ClickValueSet(facet.Path{{P: pe("hardDrive")}}, []rdf.Term{pe("SSD1"), pe("SSD2")})
	s.ClickValue(facet.Path{{P: pe("USBPorts")}}, rdf.NewInteger(2))
	s.ClickAggregate(core.MeasureSpec{Path: facet.Path{{P: pe("price")}}}, hifun.Operation{Op: hifun.OpAvg})
	ans, err := s.RunAnalytics()
	if err != nil {
		return err
	}
	fmt.Fprintln(p.out, "-- Example 1 (AVG, no GROUP BY) --")
	fmt.Fprint(p.out, ans.String())
	// Example 2.
	s = core.NewSession(g.Clone(), ns)
	s.ClickClass(pe("Laptop"))
	s.ClickGroupBy(core.GroupSpec{Path: facet.Path{{P: pe("manufacturer")}, {P: pe("origin")}}})
	s.ClickAggregate(core.MeasureSpec{}, hifun.Operation{Op: hifun.OpCount})
	if ans, err = s.RunAnalytics(); err != nil {
		return err
	}
	fmt.Fprintln(p.out, "\n-- Example 2 (COUNT, GROUP BY path) --")
	fmt.Fprint(p.out, ans.String())
	// Example 3.
	s.ClickRange(facet.Path{{P: pe("USBPorts")}}, ">=", rdf.NewInteger(2))
	if ans, err = s.RunAnalytics(); err != nil {
		return err
	}
	fmt.Fprintln(p.out, "\n-- Example 3 (range filter) --")
	fmt.Fprint(p.out, ans.String())
	// Example 4.
	s = core.NewSession(g.Clone(), ns)
	s.ClickClass(pe("Laptop"))
	s.ClickGroupBy(core.GroupSpec{Path: facet.Path{{P: pe("manufacturer")}}})
	s.ClickGroupBy(core.GroupSpec{Path: facet.Path{{P: pe("releaseDate")}}, Derive: "YEAR"})
	s.ClickAggregate(core.MeasureSpec{Path: facet.Path{{P: pe("price")}}}, hifun.Operation{Op: hifun.OpAvg})
	ans, err = s.RunAnalytics()
	if err != nil {
		return err
	}
	fmt.Fprintln(p.out, "\n-- Example 4 (AVG by company and year) --")
	fmt.Fprint(p.out, ans.String())
	if err := s.LoadAnswerAsDataset(); err != nil {
		return err
	}
	s.ClickRange(facet.Path{{P: rdf.NewIRI(hifun.AnswerNS + ans.MeasureCols[0])}}, ">", rdf.NewDecimal(900))
	fmt.Fprintf(p.out, "   … loaded as dataset, HAVING avg>900 leaves %d group(s)\n", s.State().Ext.Len())
	return nil
}

func (p *paper) benchConfig() bench.Config {
	var cfg bench.Config
	if p.quick {
		cfg.Scales = []bench.Scale{{Name: "5k", Laptops: 350}, {Name: "20k", Laptops: 1450}}
		cfg.Runs = 3
		cfg.Workers = 4
	}
	return cfg
}

// E5 — Table 6.1 (peak hours / contended endpoint).
func (p *paper) e5() error {
	results, err := bench.Run(true, p.benchConfig())
	if err != nil {
		return err
	}
	bench.WriteTable(p.out, "Table 6.1 — efficiency under load (peak)", results)
	return nil
}

// E6 — Table 6.2 (off-peak / uncontended).
func (p *paper) e6() error {
	results, err := bench.Run(false, p.benchConfig())
	if err != nil {
		return err
	}
	bench.WriteTable(p.out, "Table 6.2 — efficiency uncontended (off-peak)", results)
	return nil
}

// E7 — the OLAP correspondence of Fig 7.1–7.2.
func (p *paper) e7() error {
	g, ns, err := datagen.Load("invoices-small", 0)
	if err != nil {
		return err
	}
	ie := func(l string) rdf.Term { return rdf.NewIRI(ns + l) }
	s := core.NewSession(g, ns)
	s.ClickClass(ie("Invoice"))
	s.ClickGroupBy(core.GroupSpec{Path: facet.Path{{P: ie("takesPlaceAt")}}})
	s.ClickGroupBy(core.GroupSpec{Path: facet.Path{{P: ie("delivers")}}})
	s.ClickAggregate(core.MeasureSpec{Path: facet.Path{{P: ie("inQuantity")}}}, hifun.Operation{Op: hifun.OpSum})
	fine, err := s.RunAnalytics()
	if err != nil {
		return err
	}
	fmt.Fprintln(p.out, "-- cube: SUM(quantity) by (branch, product) --")
	fmt.Fprint(p.out, fine.String())
	pt, err := core.Pivot(fine, false, 0)
	if err != nil {
		return err
	}
	fmt.Fprintln(p.out, "\n-- pivot --")
	fmt.Fprint(p.out, pt.String())
	coarse, err := s.RollUp(1)
	if err != nil {
		return err
	}
	fmt.Fprintln(p.out, "\n-- roll-up to (branch) [Fig 7.2 upward] --")
	fmt.Fprint(p.out, coarse.String())
	fine2, err := s.DrillDown(core.GroupSpec{Path: facet.Path{{P: ie("delivers")}, {P: ie("brand")}}})
	if err != nil {
		return err
	}
	fmt.Fprintln(p.out, "\n-- drill-down to (branch, brand) [Fig 7.2 downward] --")
	fmt.Fprint(p.out, fine2.String())
	sliced, err := s.Slice(facet.Path{{P: ie("takesPlaceAt")}}, ie("branch3"))
	if err != nil {
		return err
	}
	fmt.Fprintln(p.out, "\n-- slice branch=branch3 --")
	fmt.Fprint(p.out, sliced.String())
	return nil
}

// E10 — evaluation-strategy ablation (Tables 5.1 vs 5.2 / Fig 8.3).
func (p *paper) e10() error {
	laptops := 2000
	if p.quick {
		laptops = 500
	}
	g := datagen.Products(datagen.ProductsConfig{Laptops: laptops, Companies: 12, Seed: 1, Materialize: true})
	ns := datagen.ExampleNS
	m := facet.NewModel(g)
	s0 := m.ClickClass(m.Start(), rdf.NewIRI(ns+"Laptop"))
	path := facet.Path{{P: rdf.NewIRI(ns + "manufacturer")}, {P: rdf.NewIRI(ns + "origin")}}
	vals := m.Decode(m.ExpandPath(s0, path))
	if len(vals) == 0 {
		return fmt.Errorf("no expansion values")
	}
	target := vals[0].Value
	iters := 50
	if p.quick {
		iters = 15
	}
	start := time.Now()
	var st *facet.State
	for i := 0; i < iters; i++ {
		st = m.ClickValue(s0, path, target)
	}
	setDur := time.Since(start) / time.Duration(iters)
	start = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := st.Int.Answer(g); err != nil {
			return err
		}
	}
	sparqlDur := time.Since(start) / time.Duration(iters)
	fmt.Fprintf(p.out, "state transition over %d laptops (%d triples), %d iterations:\n", laptops, g.Len(), iters)
	fmt.Fprintf(p.out, "  in-memory set evaluation (Table 5.1): %v per transition\n", setDur.Round(time.Microsecond))
	fmt.Fprintf(p.out, "  SPARQL-only evaluation   (Table 5.2): %v per transition\n", sparqlDur.Round(time.Microsecond))
	fmt.Fprintf(p.out, "  extension size agrees: %d objects\n", st.Ext.Len())
	return nil
}

// E11 — spiral and 3D-city layouts (§6.3, Figs 6.4–6.5).
func (p *paper) e11() error {
	dir := p.outDir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "rdfa-paper-"); err != nil {
			return err
		}
	}
	items := make([]viz.SpiralItem, 64)
	for i := range items {
		items[i] = viz.SpiralItem{
			Label: fmt.Sprintf("v%d", i),
			Value: float64(int(1000 / float64(i+1))), // power-law-ish
		}
	}
	placed := viz.SpiralLayout{}.Layout(items)
	minX, minY, maxX, maxY := viz.Bounds(placed)
	fmt.Fprintf(p.out, "spiral layout: %d values placed, bounding box %.0fx%.0f, center value %q\n",
		len(placed), maxX-minX, maxY-minY, placed[0].Label)
	spiralPath := dir + "/spiral.svg"
	if err := os.WriteFile(spiralPath, []byte(viz.SpiralSVG(placed, 4)), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(p.out, "wrote", spiralPath)
	// 3D city over the country statistics dataset.
	g, ns, err := datagen.Load("stats", 0)
	if err != nil {
		return err
	}
	var entities []viz.Entity3D
	for _, c := range rdf.InstancesOf(g, rdf.NewIRI(ns+"Country")) {
		e := viz.Entity3D{Label: c.LocalName(), Features: map[string]float64{}}
		for _, f := range []string{"cases", "deaths", "recovered"} {
			if v, ok := g.Object(c, rdf.NewIRI(ns+f)).Float(); ok {
				e.Features[f] = v / 1e6
			}
		}
		entities = append(entities, e)
	}
	scene := viz.BuildCity(entities, viz.CityConfig{})
	fmt.Fprintf(p.out, "3D city: %d buildings, %d features\n", len(scene.Buildings), len(scene.Features))
	cityPath := dir + "/city.svg"
	if err := os.WriteFile(cityPath, []byte(scene.IsometricSVG(3)), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(p.out, "wrote", cityPath)
	data, err := scene.JSON()
	if err != nil {
		return err
	}
	jsonPath := dir + "/city.json"
	if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(p.out, "wrote", jsonPath)
	return nil
}
