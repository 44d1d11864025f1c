package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/sparql"
)

// Planner feedback benchmark (the q-error loop of the adaptive planner):
// a fixed workload of multi-join SPARQL queries is replayed over the
// products KG in several passes sharing one feedback store. Pass 1 plans
// cold from the graph counts; later passes plan from the cardinalities the
// earlier passes observed. The per-pass worst q-error must fall — ideally
// to 1 — while latency does not regress.

// PlannerWorkload is the replayed query mix: star and chain joins whose
// intermediate cardinalities the cold estimator cannot know exactly.
var PlannerWorkload = []string{
	`PREFIX ex: <` + datagen.ExampleNS + `>
SELECT ?s ?m ?c WHERE {
  ?s a ex:Laptop .
  ?s ex:manufacturer ?m .
  ?m ex:origin ?c .
  ?s ex:price ?p .
}`,
	`PREFIX ex: <` + datagen.ExampleNS + `>
SELECT ?s ?hdm ?where WHERE {
  ?s ex:hardDrive ?hd .
  ?hd ex:manufacturer ?hdm .
  ?hdm ex:origin ?o .
  ?o ex:locatedAt ?where .
}`,
	`PREFIX ex: <` + datagen.ExampleNS + `>
SELECT ?s ?p WHERE {
  ?s a ex:Laptop .
  ?s ex:USBPorts ?u .
  ?s ex:price ?p .
  ?s ex:releaseDate ?d .
  FILTER(?u >= 2)
}`,
	`PREFIX ex: <` + datagen.ExampleNS + `>
SELECT ?m (COUNT(?s) AS ?n) WHERE {
  ?s ex:manufacturer ?m .
  ?s ex:hardDrive ?hd .
  ?hd a ex:SSD .
} GROUP BY ?m`,
}

// PlannerConfig parameterizes the feedback-convergence run.
type PlannerConfig struct {
	// Laptops sizes the products KG (default 2000).
	Laptops int
	// Passes is how many times the workload replays (default 2; the
	// interesting comparison is pass 1 vs pass 2).
	Passes int
	// Runs is the measured repetitions of each query per pass (default 5).
	Runs int
	Seed int64
}

func (c PlannerConfig) withDefaults() PlannerConfig {
	if c.Laptops <= 0 {
		c.Laptops = 2000
	}
	if c.Passes <= 0 {
		c.Passes = 2
	}
	if c.Runs <= 0 {
		c.Runs = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// PlannerPass is one workload replay: its worst scan q-error and the
// latency quantiles over every (query, run) execution of the pass.
type PlannerPass struct {
	Pass      int
	Triples   int
	Runs      int
	MaxQError float64
	Mean      time.Duration
	P50       time.Duration
	P95       time.Duration
	// FeedbackHits is the cumulative feedback-store hit count after the
	// pass (0 after pass 1: nothing was seeded yet when it planned).
	FeedbackHits uint64
}

// RunPlannerFeedback replays the workload cfg.Passes times over a shared
// feedback store and reports the per-pass convergence.
func RunPlannerFeedback(cfg PlannerConfig) ([]PlannerPass, error) {
	cfg = cfg.withDefaults()
	g := datagen.Products(datagen.ProductsConfig{
		Laptops:     cfg.Laptops,
		Companies:   16,
		Seed:        cfg.Seed,
		Materialize: true,
	})
	type prepared struct {
		q    *sparql.Query
		fpID string
	}
	queries := make([]prepared, 0, len(PlannerWorkload))
	for _, src := range PlannerWorkload {
		q, err := sparql.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("bench planner: %w", err)
		}
		queries = append(queries, prepared{q: q, fpID: sparql.FingerprintID(sparql.Fingerprint(q))})
	}
	fb := sparql.NewFeedbackStore()
	var passes []PlannerPass
	for pass := 1; pass <= cfg.Passes; pass++ {
		maxQ := 0.0
		var durs []time.Duration
		for _, pq := range queries {
			for run := 0; run < cfg.Runs; run++ {
				// Every execution observes into the shared store, so later
				// runs within a pass already plan warm; the pass's q-error is
				// therefore taken from the first run only — cold on pass 1,
				// feedback-seeded from pass 2 on.
				prof := sparql.NewProfile("query")
				opts := sparql.Options{
					Feedback:      fb,
					FingerprintID: pq.fpID,
					Profile:       prof,
				}
				start := time.Now()
				if _, err := sparql.ExecSelectOpts(g, pq.q, opts); err != nil {
					return nil, err
				}
				durs = append(durs, time.Since(start))
				if run == 0 {
					if qe := prof.MaxQError(); qe > maxQ {
						maxQ = qe
					}
				}
			}
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		var total time.Duration
		for _, d := range durs {
			total += d
		}
		passes = append(passes, PlannerPass{
			Pass:         pass,
			Triples:      g.Len(),
			Runs:         len(durs),
			MaxQError:    maxQ,
			Mean:         total / time.Duration(len(durs)),
			P50:          durs[len(durs)/2],
			P95:          durs[(len(durs)*95)/100],
			FeedbackHits: fb.Stats().Hits,
		})
	}
	return passes, nil
}

// WritePlannerTable renders the per-pass convergence.
func WritePlannerTable(w io.Writer, passes []PlannerPass) {
	fmt.Fprintf(w, "Planner feedback convergence (%d queries × %d passes)\n",
		len(PlannerWorkload), len(passes))
	fmt.Fprintf(w, "%-6s %12s %12s %12s %12s %14s\n",
		"pass", "max q-error", "mean", "p50", "p95", "feedback hits")
	for _, p := range passes {
		fmt.Fprintf(w, "%-6d %12.2f %12s %12s %12s %14d\n",
			p.Pass, p.MaxQError,
			p.Mean.Round(10*time.Microsecond), p.P50.Round(10*time.Microsecond),
			p.P95.Round(10*time.Microsecond), p.FeedbackHits)
	}
}

// PlannerRecords flattens the passes into history records under one
// experiment id; q-error rides in the label since the Record schema is
// latency-shaped.
func PlannerRecords(experiment string, passes []PlannerPass) []Record {
	out := make([]Record, 0, len(passes))
	for _, p := range passes {
		out = append(out, Record{
			Experiment: experiment,
			Query:      fmt.Sprintf("pass%d", p.Pass),
			Label:      fmt.Sprintf("max_q_error=%.3f feedback_hits=%d", p.MaxQError, p.FeedbackHits),
			Triples:    p.Triples,
			Runs:       p.Runs,
			NsPerOp:    p.Mean.Nanoseconds(),
			P95Ns:      p.P95.Nanoseconds(),
		})
	}
	return out
}
