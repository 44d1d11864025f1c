// Command sparqlrun evaluates a SPARQL query against a dataset and prints
// the results.
//
// Usage:
//
//	sparqlrun -data products-small 'SELECT ?s WHERE { ?s a <...> }'
//	sparqlrun -data file.ttl -f query.rq -format csv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/obs"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

func main() {
	data := flag.String("data", "products-small", "dataset spec (see datagen.Load)")
	scale := flag.Int("scale", 0, "dataset scale")
	file := flag.String("f", "", "read the query from this file instead of argv")
	format := flag.String("format", "table", "output format: table, csv, json")
	explain := flag.Bool("explain", false, "print the evaluation plan instead of running the query")
	explainAnalyze := flag.Bool("explain-analyze", false,
		"run the query and print the operator profile: per-operator wall time, rows, est vs actual cardinality with q-error (SELECT only)")
	trace := flag.Bool("trace", false, "print the per-phase timing tree after the results (SELECT only)")
	noReorder := flag.Bool("no-reorder", false, "evaluate BGPs in textual order (join-ordering ablation)")
	repeat := flag.Int("repeat", 1, "run the query this many times; unless -no-reorder, later passes plan from the cardinalities earlier ones observed")
	version := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *version {
		fmt.Printf("sparqlrun %s (%s)\n", obs.Version(), runtime.Version())
		return
	}
	var query string
	switch {
	case *file != "":
		b, err := os.ReadFile(*file)
		if err != nil {
			log.Fatal(err)
		}
		query = string(b)
	case flag.NArg() > 0:
		query = flag.Arg(0)
	default:
		log.Fatal("sparqlrun: no query given (argument or -f file)")
	}
	g, _, err := datagen.Load(*data, *scale)
	if err != nil {
		log.Fatal(err)
	}
	planOpts := sparql.Options{NoReorder: *noReorder}
	if *explain {
		plan, err := sparql.ExplainOpts(g, query, planOpts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(plan)
		return
	}
	if *explainAnalyze {
		tree, err := sparql.ExplainAnalyze(g, query, planOpts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(tree)
		return
	}
	q, err := sparql.Parse(query)
	if err != nil {
		log.Fatal(err)
	}
	switch q.Form {
	case sparql.FormSelect:
		if *repeat < 1 {
			*repeat = 1
		}
		// With -repeat, a per-process feedback store lets later passes plan
		// from the cardinalities the first pass observed (the closed loop
		// the server runs continuously).
		var fb *sparql.FeedbackStore
		if *repeat > 1 && !*noReorder {
			fb = sparql.NewFeedbackStore()
		}
		var tr *obs.Trace
		var res *sparql.Results
		for pass := 1; pass <= *repeat; pass++ {
			tr = nil
			if *trace {
				tr = obs.NewTrace("query")
			}
			opts := planOpts
			opts.Trace = tr
			if fb != nil {
				opts.Feedback = fb
				opts.FingerprintID = sparql.FingerprintID(sparql.Fingerprint(q))
				opts.Profile = sparql.NewProfile("query")
			}
			start := time.Now()
			res, err = sparql.ExecSelectOpts(g, q, opts)
			elapsed := time.Since(start)
			tr.Finish()
			if err != nil {
				log.Fatal(err)
			}
			if *repeat > 1 {
				fmt.Fprintf(os.Stderr, "pass %d/%d: %s, max q-error %.2f\n",
					pass, *repeat, elapsed.Round(time.Microsecond), opts.Profile.MaxQError())
			}
		}
		if len(q.OrderBy) == 0 {
			// Canonical order for deterministic display — but an ORDER BY
			// query is already in its answer order; re-sorting would undo it.
			res.Sort()
		}
		switch *format {
		case "csv":
			if err := res.WriteCSV(os.Stdout); err != nil {
				log.Fatal(err)
			}
		case "json":
			if err := res.WriteJSON(os.Stdout); err != nil {
				log.Fatal(err)
			}
		default:
			fmt.Print(res.String())
			fmt.Printf("(%d rows)\n", res.Len())
		}
		if tr != nil {
			fmt.Fprint(os.Stderr, "\n"+tr.Tree())
		}
	case sparql.FormAsk:
		ok, err := sparql.Ask(g, query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(ok)
	case sparql.FormConstruct:
		out, err := sparql.Construct(g, query)
		if err != nil {
			log.Fatal(err)
		}
		if err := rdf.WriteNTriples(os.Stdout, out); err != nil {
			log.Fatal(err)
		}
	case sparql.FormDescribe:
		out, err := sparql.Describe(g, query)
		if err != nil {
			log.Fatal(err)
		}
		if err := rdf.WriteNTriples(os.Stdout, out); err != nil {
			log.Fatal(err)
		}
	}
}
