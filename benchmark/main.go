// Command benchmark is the repository's standing benchmark: it brings the
// RDF-Analytics server up in process, drives it over a real loopback TCP
// connection with a seeded, closed-loop load, checks every answer against a
// committed oracle, and prints every metric by name with its unit.
//
//	go run ./benchmark -workload facet-sessions -seed 1 -seconds 20 -trace 0
//
// -trace 0 reports the end-to-end metrics, -trace 1 the per-layer metrics
// (and writes the span file). See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "", "facet-sessions | sparql-cold | sparql-hot | mixed-rw")
		seed    = flag.Int64("seed", 1, "workload seed: shapes the op order, never what an op asks")
		seconds = flag.Float64("seconds", runSeconds, "length of a -trace 0 run: scales the workload's fixed number of rounds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced pass, per-layer metrics")
		outDir  = flag.String("out", ".bench_out", "directory for the span file and the durable workload's store")
		repeat  = flag.Int("repeat", 0, "noise calibration: run the workload N times and print median, quartiles and range per metric")
		quick   = flag.Bool("quick", false, "≈1k-triple graph and short rounds, for the tests")
		update  = flag.Bool("update-golden", false, "record the answers of every workload into golden/ instead of checking them")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json from the program's own metric tables and exit")
	)
	flag.Parse()
	if *spec {
		if err := printSpec(); err != nil {
			fatal(err)
		}
		return
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	if *update {
		if err := updateGolden(*quick, *outDir); err != nil {
			fatal(err)
		}
		return
	}
	w := findWorkload(*name, *quick)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *repeat > 0 {
		if err := calibrate(w, *seed, *seconds, *trace, *outDir, *repeat); err != nil {
			fatal(err)
		}
		return
	}
	res, err := runOnce(w, *seed, *seconds, *trace, *outDir, logf)
	if err != nil {
		fatal(err)
	}
	printResult(res)
}

func logf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runOnce is one run of one workload; it prints the run's record first.
func runOnce(w *workload, seed int64, seconds float64, trace int, outDir string, log func(string, ...any)) (*result, error) {
	gold, err := loadGolden(w)
	if err != nil {
		return nil, err
	}
	rec := newRecord(w, seed, seconds)
	b, _ := json.Marshal(rec)
	log("record %s", b)
	if trace == 0 {
		return runEndToEnd(w, gold, seed, seconds, outDir, log)
	}
	file := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	return runTraced(w, gold, seed, outDir, file, rec, log)
}

// all returns the run's metrics and timings in one map.
func (res *result) all() map[string]metric {
	out := map[string]metric{}
	for _, m := range []map[string]metric{res.Metrics, res.Timings} {
		for n, v := range m {
			out[n] = v
		}
	}
	return out
}

// printResult prints every metric by name with its unit, then, as the last
// line, the JSON object the acceptance driver reads.
func printResult(res *result) {
	all := res.all()
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.4f %s\n", n, all[n].Value, all[n].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// calibrate is the noise calibration mode: n runs, each with the next seed,
// then per metric the median, quartiles and range the bounds are set from.
func calibrate(w *workload, seed int64, seconds float64, trace int, outDir string, n int) error {
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		res, err := runOnce(w, seed+int64(i), seconds, trace, outDir, func(string, ...any) {})
		if err != nil {
			return err
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: %d of %d operations failed", seed+int64(i), res.Failed, res.Attempted)
		}
		for name, m := range res.all() {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		b, _ := json.Marshal(res.all())
		fmt.Fprintf(os.Stderr, "run %d/%d seed %d %s\n", i+1, n, seed+int64(i), b)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("| %s, seeds %d–%d | unit | median | Q1 | Q3 | IQR/median | min | max | range/median |\n|---|---|---|---|---|---|---|---|---|\n", w.name, seed, seed+int64(n)-1)
	for _, name := range names {
		s := summarise(values[name])
		fmt.Printf("| `%s` | %s | %.4g | %.4g | %.4g | %.1f %% | %.4g | %.4g | %.1f %% |\n",
			name, units[name], s.Median, s.Q1, s.Q3, 100*s.iqrShare(), s.Min, s.Max, 100*s.rangeShare())
	}
	return nil
}

// updateGolden records the oracle: every workload runs one round against a
// fresh system and its canonical answers are written to golden/. Every op
// has to succeed; a key seen twice has to give the same answer.
func updateGolden(quick bool, outDir string) error {
	for _, w := range workloads(quick) {
		sys, err := setUp(w.laptops, w.durable, outDir)
		if err != nil {
			return err
		}
		rec := &golden{Answers: map[string]digests{}}
		p, err := runPass(sys, w, nil, rec, 1, 1)
		if terr := sys.tearDown(); err == nil {
			err = terr
		}
		if err != nil {
			return err
		}
		if failed := p.failures(); failed > 0 {
			return fmt.Errorf("%s: %d ops failed while recording: %v", w.name, failed, p.failed)
		}
		b, err := json.MarshalIndent(rec, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(goldenName(w), append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("%s: %d answers recorded\n", goldenName(w), len(rec.Answers))
	}
	return nil
}
