// Package bench is the efficiency harness of §6.4: it measures the
// end-to-end latency of representative analytic queries (click-sequence →
// HIFUN → SPARQL → answer) over datasets of increasing size, in two
// endpoint-load regimes — "off-peak" (uncontended store, Table 6.2) and
// "peak" (the store concurrently serving a pool of background query
// workers, Table 6.1). The paper measured a remote Virtuoso endpoint at
// different hours of day; the worker pool is the substitution that
// recreates the same contention phenomenon locally (see DESIGN.md).
package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

// QuerySpec is one benchmark query: a HIFUN query over the products KG,
// with the root class of its analysis context.
type QuerySpec struct {
	ID    string
	Label string
	HIFUN string
	Root  string // class local name within the products namespace
}

// PaperQueries are the four representative queries of the evaluation,
// matching the §5.1 examples in increasing complexity.
var PaperQueries = []QuerySpec{
	{"Q1", "AVG price (no grouping)", "(ε, price, AVG)", "Laptop"},
	{"Q2", "COUNT by manufacturer origin (path)", "(origin.manufacturer, ID, COUNT)", "Laptop"},
	{"Q3", "AVG price by manufacturer, USB>=2", "(manufacturer/usb, price/>=0, AVG)", "Laptop"},
	{"Q4", "SUM price by maker+origin, HAVING", "(manufacturer & origin.manufacturer, price, SUM/>0)", "Laptop"},
}

// Scale is one dataset size of the sweep.
type Scale struct {
	Name    string
	Laptops int
}

// DefaultScales approximates the paper's small/medium/large endpoints; the
// generator yields ≈9 triples per laptop after RDFS materialization.
var DefaultScales = []Scale{
	{"10k", 1100},   // ≈10k triples after inference
	{"50k", 5600},   // ≈50k
	{"100k", 11200}, // ≈100k
}

// Result is one measured cell: a query at a scale under a load regime.
type Result struct {
	Query   QuerySpec
	Scale   Scale
	Triples int
	Peak    bool
	Workers int
	Runs    int
	Mean    time.Duration
	P50     time.Duration
	P95     time.Duration
}

// Config parameterizes a run.
type Config struct {
	Scales  []Scale
	Queries []QuerySpec
	// Runs is the number of measured repetitions per cell (default 7).
	Runs int
	// Workers is the background query pool size in peak mode (default 8).
	Workers int
	Seed    int64
}

func (c Config) withDefaults() Config {
	if len(c.Scales) == 0 {
		c.Scales = DefaultScales
	}
	if len(c.Queries) == 0 {
		c.Queries = PaperQueries
	}
	if c.Runs <= 0 {
		c.Runs = 7
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// buildContext materializes the products KG at the scale and wraps it in a
// HIFUN context rooted at the query's class.
func buildContext(scale Scale, seed int64, root string) (*hifun.Context, int) {
	g := datagen.Products(datagen.ProductsConfig{
		Laptops:     scale.Laptops,
		Companies:   16,
		Seed:        seed,
		Materialize: true,
	})
	ctx := hifun.NewContext(g, datagen.ExampleNS)
	if root != "" {
		ctx = ctx.WithRoot(rdf.NewIRI(datagen.ExampleNS + root))
	}
	return ctx, g.Len()
}

// PrepareQuery parses and fixes up a query spec (Q3's placeholder
// restriction is rewritten into a range filter on USBPorts through the
// measuring part).
func PrepareQuery(spec QuerySpec, ns string) (*hifun.Query, error) {
	switch spec.ID {
	case "Q3":
		// Built programmatically: AVG price grouped by manufacturer over
		// laptops with USBPorts >= 2.
		q := &hifun.Query{
			Grouping:  hifun.Prop{Name: "manufacturer"},
			Measuring: hifun.Prop{Name: "price"},
			MeasRestrs: []hifun.Restriction{{
				Path:  hifun.Prop{Name: "USBPorts"},
				Op:    ">=",
				Value: rdf.NewInteger(2),
			}},
			Ops: []hifun.Operation{{Op: hifun.OpAvg}},
		}
		return q, nil
	default:
		return hifun.Parse(spec.HIFUN, ns)
	}
}

// workerQueries is the background load mix: lightweight lookups and one
// aggregate, approximating a public endpoint's traffic.
var workerQueries = []string{
	`SELECT ?s WHERE { ?s <` + rdf.RDFType + `> <` + datagen.ExampleNS + `Laptop> } LIMIT 50`,
	`SELECT ?s ?p WHERE { ?s ?p <` + datagen.ExampleNS + `USA> } LIMIT 50`,
	`SELECT ?m (COUNT(?s) AS ?n) WHERE { ?s <` + datagen.ExampleNS + `manufacturer> ?m } GROUP BY ?m`,
	`SELECT ?s ?o WHERE { ?s <` + datagen.ExampleNS + `hardDrive> ?o } LIMIT 100`,
}

// StartWorkers launches n background query workers against g (the "peak
// hours" contention of Table 6.1) and returns a function that stops them.
func StartWorkers(g *rdf.Graph, n int) func() {
	cctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := w
			for cctx.Err() == nil {
				_, _ = sparql.Select(g, workerQueries[i%len(workerQueries)])
				i++
			}
		}(w)
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// RunCell measures one (query, scale, regime) cell.
func RunCell(spec QuerySpec, scale Scale, peak bool, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	ctx, triples := buildContext(scale, cfg.Seed, spec.Root)
	q, err := PrepareQuery(spec, ctx.NS)
	if err != nil {
		return Result{}, fmt.Errorf("bench %s: %w", spec.ID, err)
	}
	src, err := ctx.Translator().Translate(q)
	if err != nil {
		return Result{}, fmt.Errorf("bench %s: %w", spec.ID, err)
	}
	parsed, err := sparql.Parse(src)
	if err != nil {
		return Result{}, fmt.Errorf("bench %s: generated SPARQL: %w", spec.ID, err)
	}
	// Background load (peak regime).
	stop := func() {}
	if peak {
		stop = StartWorkers(ctx.Graph, cfg.Workers)
	}
	defer stop()
	// Warmup.
	if _, err := sparql.ExecSelect(ctx.Graph, parsed); err != nil {
		return Result{}, err
	}
	durs := make([]time.Duration, 0, cfg.Runs)
	for i := 0; i < cfg.Runs; i++ {
		start := time.Now()
		if _, err := sparql.ExecSelect(ctx.Graph, parsed); err != nil {
			return Result{}, err
		}
		durs = append(durs, time.Since(start))
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	var total time.Duration
	for _, d := range durs {
		total += d
	}
	res := Result{
		Query: spec, Scale: scale, Triples: triples, Peak: peak,
		Runs: cfg.Runs, Mean: total / time.Duration(len(durs)),
		P50: durs[len(durs)/2], P95: durs[(len(durs)*95)/100],
	}
	if peak {
		res.Workers = cfg.Workers
	}
	return res, nil
}

// Run measures the full sweep for one regime (Table 6.1 when peak, 6.2
// otherwise).
func Run(peak bool, cfg Config) ([]Result, error) {
	cfg = cfg.withDefaults()
	var out []Result
	for _, scale := range cfg.Scales {
		for _, q := range cfg.Queries {
			r, err := RunCell(q, scale, peak, cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// WriteTable renders results in the layout of Tables 6.1/6.2: one row per
// query, one column block per scale.
func WriteTable(w io.Writer, title string, results []Result) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-4s %-40s", "ID", "Query")
	scales := []Scale{}
	seen := map[string]bool{}
	for _, r := range results {
		if !seen[r.Scale.Name] {
			seen[r.Scale.Name] = true
			scales = append(scales, r.Scale)
		}
	}
	for _, s := range scales {
		fmt.Fprintf(w, " %14s", s.Name+" mean")
		fmt.Fprintf(w, " %14s", s.Name+" p95")
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 45+29*len(scales)))
	queries := []QuerySpec{}
	seenQ := map[string]bool{}
	for _, r := range results {
		if !seenQ[r.Query.ID] {
			seenQ[r.Query.ID] = true
			queries = append(queries, r.Query)
		}
	}
	for _, q := range queries {
		fmt.Fprintf(w, "%-4s %-40s", q.ID, q.Label)
		for _, s := range scales {
			for _, r := range results {
				if r.Query.ID == q.ID && r.Scale.Name == s.Name {
					fmt.Fprintf(w, " %14s", r.Mean.Round(10*time.Microsecond))
					fmt.Fprintf(w, " %14s", r.P95.Round(10*time.Microsecond))
				}
			}
		}
		fmt.Fprintln(w)
	}
}
