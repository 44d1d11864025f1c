package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
	"rdfanalytics/internal/stats"
)

// sparqlCommand evaluates a SPARQL query against a dataset and prints the
// results:
//
//	rdfa-cli sparql -data products-small 'SELECT ?s WHERE { ?s a <...> }'
//	rdfa-cli sparql -data file.ttl -f query.rq -format csv
//	rdfa-cli sparql -data products -explain-analyze '<query>'
//
// There is one plan output, -explain-analyze: the operator profile of the
// run, which shows the scans in the order they ran and the join type each
// one ran with.
func sparqlCommand(fs *flag.FlagSet) func(io.Reader, io.Writer, io.Writer) error {
	src := dataset(fs, "products-small")
	file := fs.String("f", "", "read the query from this file instead of argv")
	format := fs.String("format", "table", "output format: table, csv, json")
	explainAnalyze := fs.Bool("explain-analyze", false,
		"run the query and print its plan as it ran: the scans in join order with their join type, per-operator wall time, rows, est vs actual cardinality with q-error (SELECT only)")
	noReorder := fs.Bool("no-reorder", false, "evaluate BGPs in textual order (join-ordering ablation)")
	repeat := fs.Int("repeat", 1, "run the query this many times, printing each pass's wall time to stderr")
	return func(_ io.Reader, out, errOut io.Writer) error {
		var query string
		switch {
		case *file != "":
			b, err := os.ReadFile(*file)
			if err != nil {
				return err
			}
			query = string(b)
		case fs.NArg() > 0:
			query = fs.Arg(0)
		default:
			return fmt.Errorf("no query given (argument or -f file)")
		}
		g, _, err := src.load()
		if err != nil {
			return err
		}
		opts := sparql.Options{NoReorder: *noReorder}
		if *explainAnalyze {
			tree, err := sparql.ExplainAnalyze(g, query, opts)
			if err != nil {
				return err
			}
			_, err = io.WriteString(out, tree)
			return err
		}
		return queryRun{format: *format, opts: opts, repeat: *repeat, timings: errOut}.print(out, g, query)
	}
}

// queryRun is how a query's answer is printed, by the sparql subcommand and
// the REPL's sparql command alike. The zero value prints a table after one
// pass.
type queryRun struct {
	format  string // table (also ""), csv or json
	opts    sparql.Options
	repeat  int       // passes of a SELECT; each pass plans and runs alike
	timings io.Writer // gets each pass's wall time when repeat > 1
}

// print evaluates query over g and prints its answer: a SELECT's rows —
// re-sorted canonically unless the query orders them —, an ASK's true or
// false, a CONSTRUCT's or DESCRIBE's graph as N-Triples.
func (r queryRun) print(out io.Writer, g *rdf.Graph, query string) error {
	q, err := sparql.Parse(query)
	if err != nil {
		return err
	}
	switch q.Form {
	case sparql.FormAsk:
		ok, err := sparql.Ask(g, query)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(out, ok)
		return err
	case sparql.FormConstruct, sparql.FormDescribe:
		eval := sparql.Construct
		if q.Form == sparql.FormDescribe {
			eval = sparql.Describe
		}
		res, err := eval(g, query)
		if err != nil {
			return err
		}
		return rdf.WriteNTriples(out, res)
	}
	var tab *sparql.Table
	for pass := 1; pass <= max(r.repeat, 1); pass++ {
		start := time.Now()
		if tab, err = sparql.ExecSelectTable(context.Background(), g, q, r.opts); err != nil {
			return err
		}
		if r.repeat > 1 {
			fmt.Fprintf(r.timings, "pass %d/%d: %s\n", pass, r.repeat, time.Since(start).Round(time.Microsecond))
		}
	}
	if len(q.OrderBy) == 0 {
		// Canonical order for deterministic display — but an ORDER BY
		// query is already in its answer order; re-sorting would undo it.
		tab.Sort()
	}
	switch r.format {
	case "csv":
		return tab.WriteCSV(out)
	case "json":
		_, err = out.Write(tab.JSON())
		return err
	}
	res := tab.Results()
	_, err = fmt.Fprintf(out, "%s(%d rows)\n", res.String(), res.Len())
	return err
}

// hifunCommand translates a textual HIFUN analytic query to SPARQL (the
// Algorithm 1–4 translator of Chapter 4) and with -run executes it:
//
//	rdfa-cli hifun -ns http://example.org/invoices# '(takesPlaceAt, inQuantity, SUM)'
//	rdfa-cli hifun -data invoices-small -run '(brand.delivers, inQuantity, SUM/>100)'
func hifunCommand(fs *flag.FlagSet) func(io.Reader, io.Writer, io.Writer) error {
	src := dataset(fs, "invoices-small")
	ns := fs.String("ns", "", "attribute namespace (defaults to the dataset's)")
	root := fs.String("root", "", "root class local name for the analysis context")
	execQuery := fs.Bool("run", false, "execute the query and print the answer")
	return func(_ io.Reader, out, _ io.Writer) error {
		if fs.NArg() != 1 {
			return fmt.Errorf("exactly one HIFUN query expected, e.g. '(takesPlaceAt, inQuantity, SUM)'")
		}
		g, dataNS, err := src.load()
		if err != nil {
			return err
		}
		if *ns == "" {
			*ns = dataNS
		}
		q, err := hifun.Parse(fs.Arg(0), *ns)
		if err != nil {
			return err
		}
		ctx := hifun.NewContext(g, *ns)
		if *root != "" {
			ctx = ctx.WithRoot(rdf.NewIRI(*ns + *root))
		}
		text, err := ctx.Translator().Translate(q)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "# HIFUN: %s\n%s\n", q, text)
		if !*execQuery {
			return nil
		}
		ans, err := ctx.Execute(q)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "\n%s", ans)
		return err
	}
}

// voidCommand profiles a dataset and publishes the statistics in RDF using
// the VoID vocabulary (the category-C4 capability of the paper's survey),
// optionally reporting the degree distribution and its power-law fit
// (category C5) on stderr:
//
//	rdfa-cli void -data products -scale 1000   # VoID as Turtle
//	rdfa-cli void -data file.ttl -degrees      # + degree analysis
func voidCommand(fs *flag.FlagSet) func(io.Reader, io.Writer, io.Writer) error {
	src := dataset(fs, "products-small")
	iri := fs.String("iri", "http://example.org/dataset", "IRI for the described dataset")
	degrees := fs.Bool("degrees", false, "print degree distribution and power-law fit to stderr")
	return func(_ io.Reader, out, errOut io.Writer) error {
		g, _, err := src.load()
		if err != nil {
			return err
		}
		vd := stats.Compute(g).ToVoID(*iri)
		if err := rdf.WriteTurtle(out, vd, map[string]string{"void": stats.VoIDNS}); err != nil {
			return err
		}
		if *degrees {
			dist := stats.DegreeDistribution(g)
			alpha, n := stats.PowerLawFit(dist, 2)
			fmt.Fprintf(errOut, "degree distribution: %d distinct degrees, top: %v\n",
				len(dist), stats.TopK(dist, 5))
			if n > 0 && alpha > 0 {
				fmt.Fprintf(errOut, "power-law fit (x>=2): alpha = %.3f over %d resources\n", alpha, n)
			} else {
				fmt.Fprintln(errOut, "power-law fit: insufficient data")
			}
		}
		return nil
	}
}

// genCommand emits a dataset of the reproduction as Turtle, N-Triples or a
// binary snapshot:
//
//	rdfa-cli gen -data products -scale 1000 -format ttl > products.ttl
func genCommand(fs *flag.FlagSet) func(io.Reader, io.Writer, io.Writer) error {
	src := dataset(fs, "products-small")
	format := fs.String("format", "ttl", "output format: ttl, nt, rdfb (binary snapshot)")
	return func(_ io.Reader, out, _ io.Writer) error {
		g, ns, err := src.load()
		if err != nil {
			return err
		}
		switch *format {
		case "nt":
			return rdf.WriteNTriples(out, g)
		case "rdfb":
			return g.WriteBinary(out)
		}
		return rdf.WriteTurtle(out, g, map[string]string{"ex": ns})
	}
}
