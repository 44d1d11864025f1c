package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[99-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {100, 100}, {1, 1}, {0.5, 1}} {
		got, err := percentile(vs, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g = %g, %v; want %g", c.p, got, err, c.want)
		}
	}
	if _, err := percentile(vs[:99], 90); err == nil {
		t.Error("p90 of 99 samples was not refused")
	}
	if got, err := percentile(vs[:99], 50); err != nil || got != 51 {
		t.Errorf("median of 99 samples = %g, %v; want 51", got, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of no samples was not refused")
	}
	if p50(nil) != 0 || p90OrMax([]float64{3, 9, 4}) != 9 {
		t.Error("per-layer fallbacks: p50(nil) must be 0, p90OrMax of a small sample its maximum")
	}
}

// The driver computes spreads with Python's statistics.quantiles(v, n=4).
func TestSummariseMatchesPythonQuantiles(t *testing.T) {
	s := summarise([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 {
		t.Errorf("quartiles of 1..10 = %+v, want 2.75 5.5 8.25", s)
	}
	if got := s.iqrShare(); math.Abs(got-1) > 1e-12 {
		t.Errorf("IQR/median = %g, want 1", got)
	}
	s = summarise([]float64{3, 1, 2}) // n=3: positions 1, 2, 3 exactly
	if s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 {
		t.Errorf("quartiles of 1..3 = %+v", s)
	}
}

func TestSelfTime(t *testing.T) {
	parent := &span{StartNS: 100, EndNS: 200}
	cases := []struct {
		name string
		kids []*span
		want int64
	}{
		{"no children", nil, 100},
		{"disjoint", []*span{{StartNS: 110, EndNS: 120}, {StartNS: 150, EndNS: 180}}, 60},
		{"overlapping", []*span{{StartNS: 110, EndNS: 150}, {StartNS: 140, EndNS: 160}}, 50},
		{"nested", []*span{{StartNS: 110, EndNS: 190}, {StartNS: 120, EndNS: 130}}, 20},
		{"sticking out", []*span{{StartNS: 50, EndNS: 120}, {StartNS: 190, EndNS: 300}}, 70},
		{"outside", []*span{{StartNS: 10, EndNS: 90}}, 100},
		{"covering", []*span{{StartNS: 0, EndNS: 500}}, 0},
	}
	for _, c := range cases {
		if got := selfNS(parent, c.kids); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
	// Through the recorder: grandchildren do not count twice.
	r := newRecorder()
	root := r.start(1, 0, "op")
	child := r.start(1, root.ID, "child")
	grand := r.start(1, child.ID, "grand")
	root.StartNS, root.EndNS = 0, 100
	child.StartNS, child.EndNS = 10, 60
	grand.StartNS, grand.EndNS = 20, 30
	r.fillSelf()
	if root.SelfNS != 50 || child.SelfNS != 40 || grand.SelfNS != 10 {
		t.Errorf("self times %d %d %d, want 50 40 10", root.SelfNS, child.SelfNS, grand.SelfNS)
	}
}

// Same seed, byte-identical op list; another seed, another list; and every
// op any seed generates has its answer in the golden file.
func TestOpListsAreSeededAndCovered(t *testing.T) {
	for _, quick := range []bool{false, true} {
		for _, w := range workloads(quick) {
			gold, err := loadGolden(w)
			if err != nil {
				t.Fatal(err)
			}
			a, b := opsDigest(w.round(w, 1, 0)), opsDigest(w.round(w, 1, 0))
			if a != b {
				t.Errorf("%s: seed 1 gave two different op lists", w.name)
			}
			if c := opsDigest(w.round(w, 2, 0)); c == a {
				t.Errorf("%s: seeds 1 and 2 gave the same op list", w.name)
			}
			if c := opsDigest(w.round(w, 1, 1)); c == a {
				t.Errorf("%s: rounds 0 and 1 of seed 1 are the same list", w.name)
			}
			count := func(ops []op) map[string]int {
				m := map[string]int{}
				for _, o := range ops {
					if o.Repeat {
						m["repeat"]++ // a cache hit whichever query it repeats
					} else {
						m[o.Class+" "+o.Key]++
					}
				}
				return m
			}
			base := count(w.round(w, 1, 0))
			for _, seed := range []int64{1, 2, 977} {
				for r := 0; r < 3; r++ {
					ops := append(w.warmup(w), w.round(w, seed, r)...)
					for _, o := range ops {
						if _, ok := gold.Answers[o.Key]; !ok && o.Want == "" && o.Class != "checkpoint" {
							t.Fatalf("%s seed %d: no golden answer for %q", w.name, seed, o.Key)
						}
					}
					// Every round is the same multiset of ops.
					got := count(w.round(w, seed, r))
					for k, n := range base {
						if got[k] != n {
							t.Fatalf("%s seed %d round %d: %q occurs %d times, %d in seed 1 round 0", w.name, seed, r, k, got[k], n)
						}
					}
				}
			}
		}
	}
}

// Every run a script asks for has an aggregate selected, whatever the G and
// Σ toggles before it did.
func TestScriptsKeepRunsValid(t *testing.T) {
	for i := 0; i < scriptCount; i++ {
		acts := script(i)
		if len(acts) != 24 {
			t.Errorf("script %d has %d ops, want 24", i, len(acts))
		}
		measure, ops := "", map[string]bool{}
		for _, a := range acts {
			switch a.Kind {
			case "aggregate":
				if m := strings.TrimSpace(strings.Join(stepNames(a.Path), "/")); m != measure {
					measure, ops = m, map[string]bool{}
				}
				ops[a.Agg] = !ops[a.Agg]
			case "run":
				n := 0
				for _, on := range ops {
					if on {
						n++
					}
				}
				if n == 0 {
					t.Errorf("script %d runs with no aggregate selected", i)
				}
			}
		}
	}
}

func stepNames(p []step) []string {
	out := make([]string, len(p))
	for i, s := range p {
		out[i] = s.P
	}
	return out
}

func TestMixedModel(t *testing.T) {
	w := findWorkload("mixed-rw", false)
	ops := w.round(w, 1, 0)
	var reads, updates, checkpoints int
	for _, o := range ops {
		switch o.Class {
		case "sparql":
			reads++
		case "update":
			updates++
		case "checkpoint":
			checkpoints++
		}
	}
	if want := mixedReads(mixedCopies * len(hotSet())); reads != want || updates != want/3 || checkpoints != 1 {
		t.Errorf("round has %d reads, %d updates, %d checkpoints; want %d reads", reads, updates, checkpoints, want)
	}
	// Between two updates no query is read twice, except in a repeat slot.
	seen := map[string]bool{}
	for _, o := range ops {
		switch {
		case o.Class == "update":
			seen = map[string]bool{}
		case o.Class == "sparql" && o.Key != "":
			if seen[o.Key] != o.Repeat {
				t.Errorf("read of %s: repeat slot %t, read before since the last update %t", o.Key, o.Repeat, seen[o.Key])
			}
			seen[o.Key] = true
		}
	}
	net1, live1 := mixedModel(w, 1, 1)
	net2, live2 := mixedModel(w, 1, 2)
	if net1 != 2*len(live1) || net2 != 2*net1 || len(live2) != 2*len(live1) {
		t.Errorf("model: %d triples/%d items after one round, %d/%d after two", net1, len(live1), net2, len(live2))
	}
}

func TestCanonicalIgnoresOrderAndFloatNoise(t *testing.T) {
	a := `{"head":{"vars":["m","a"]},"results":{"bindings":[
	 {"m":{"type":"uri","value":"x"},"a":{"type":"literal","value":"1499.8583690987125","datatype":"http://www.w3.org/2001/XMLSchema#decimal"}},
	 {"m":{"type":"uri","value":"y"},"a":{"type":"literal","value":"7","datatype":"http://www.w3.org/2001/XMLSchema#integer"}}]}}`
	b := `{"head":{"vars":["m","a"]},"results":{"bindings":[
	 {"a":{"type":"literal","value":"7","datatype":"http://www.w3.org/2001/XMLSchema#integer"},"m":{"type":"uri","value":"y"}},
	 {"m":{"type":"uri","value":"x"},"a":{"type":"literal","value":"1499.8583690987129","datatype":"http://www.w3.org/2001/XMLSchema#decimal"}}]}}`
	ca, err := canonical(&op{Class: "sparql"}, []byte(a))
	if err != nil {
		t.Fatal(err)
	}
	cb, _ := canonical(&op{Class: "sparql"}, []byte(b))
	if ca != cb {
		t.Errorf("row order or the 16th digit changed the canonical form:\n%s\n%s", ca, cb)
	}
	oa, _ := canonical(&op{Class: "sparql", Ordered: true}, []byte(a))
	ob, _ := canonical(&op{Class: "sparql", Ordered: true}, []byte(b))
	if oa == ob {
		t.Error("an ORDER BY answer must keep its row order")
	}
	wrong := strings.Replace(a, `"value":"7"`, `"value":"8"`, 1)
	if cw, _ := canonical(&op{Class: "sparql"}, []byte(wrong)); cw == ca {
		t.Error("a different count gave the same canonical form")
	}
}

// The -quick path: all four workloads, both modes, against the ≈1k-triple
// graph, so that the whole benchmark keeps compiling, running and verifying.
func TestQuickRuns(t *testing.T) {
	for _, w := range workloads(true) {
		quiet := func(format string, args ...any) {
			if strings.HasPrefix(format, "FAILED") {
				t.Errorf(w.name+": "+format, args...)
			}
		}
		res, err := runOnce(w, 5, 0.2, 0, t.TempDir(), quiet)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%t failed=%d attempted=%d", w.name, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(endToEndSpec) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.name, len(res.Metrics), len(endToEndSpec))
		}
		for _, spec := range endToEndSpec {
			if m, ok := res.Metrics[spec.Name]; !ok || !(m.Value > 0) || m.Unit != spec.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", w.name, spec.Name, m, spec.Unit)
			}
		}
		for _, spec := range timingSpec {
			if m, ok := res.Timings[spec.Name]; !ok || !(m.Value > 0) || m.Unit != spec.Unit {
				t.Errorf("%s: timing %s = %+v, want a positive value in %s", w.name, spec.Name, m, spec.Unit)
			}
		}

		dir := t.TempDir()
		res, err = runOnce(w, 5, 0.2, 1, dir, quiet)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !res.Correct {
			t.Errorf("%s traced: %d of %d failed", w.name, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s traced: %d metrics, want %d", w.name, len(res.Metrics), len(perLayer))
		}
		for name, m := range res.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s traced: %s = %g", w.name, name, m.Value)
			}
			// A checkpoint may stall no read at all, so that one may be 0.
			if strings.HasPrefix(name, "store.") && (m.Value != 0) != w.durable && !(w.durable && name == "store.checkpoint_stall_ms") {
				t.Errorf("%s traced: %s = %g; store metrics are non-zero on the durable workload only", w.name, name, m.Value)
			}
		}
		// Every class the workload has reports its latencies and its handler
		// time; a 0 there would read as "class not in the workload".
		for _, class := range map[string][]string{"facet-sessions": {"click", "run"}, "sparql-cold": {"sparql"},
			"sparql-hot": {"sparql"}, "mixed-rw": {"sparql", "update"}}[w.name] {
			for _, name := range []string{"e2e.p50_ms", "e2e.p90_ms", "e2e.ops_per_s",
				"e2e." + class + "_p50_ms", "e2e." + class + "_p90_ms", "server.handler_" + class + "_ms"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s traced: %s is 0", w.name, name)
				}
			}
		}
		names, _ := os.ReadDir(dir)
		var tf traceFile
		for _, e := range names {
			if strings.HasPrefix(e.Name(), "trace-") {
				b, _ := os.ReadFile(dir + "/" + e.Name())
				if err := json.Unmarshal(b, &tf); err != nil {
					t.Fatal(err)
				}
			}
		}
		if len(tf.Spans) == 0 || tf.Record.Workload != w.name || tf.Record.GoVersion == "" || tf.Record.Dataset.Triples == 0 {
			t.Errorf("%s: span file has %d spans, record %+v", w.name, len(tf.Spans), tf.Record)
		}
	}
}

// BENCHMARK.json, one directory up, is what -spec prints.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads(false)) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads(false)))
	}
	for _, w := range spec.Workloads {
		if findWorkload(w.Name, false) == nil {
			t.Errorf("BENCHMARK.json names workload %q, the program has none", w.Name)
		}
	}
	same := func(kind string, file, prog []metricSpec) {
		if len(file) != len(prog) {
			t.Errorf("BENCHMARK.json has %d %s metrics, the program %d", len(file), kind, len(prog))
			return
		}
		for i, m := range file {
			p := prog[i]
			if m.Name != p.Name || m.Unit != p.Unit || m.Better != p.Better || (m.Bound == nil) != (p.Bound == nil) || (m.Bound != nil && *m.Bound != *p.Bound) {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, m, p)
			}
		}
	}
	same("end-to-end", spec.EndToEnd, endToEndSpec)
	same("per-layer", spec.PerLayer, perLayer)
}

// A store that does not come back must fail the restart check, not hang the
// run: tearDown after a failed restart has nothing left to stop.
func TestTearDownAfterFailedRestart(t *testing.T) {
	sys, err := setUp(scaleQuick, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	segments, _ := filepath.Glob(filepath.Join(sys.dir, "segment-*.seg"))
	if len(segments) == 0 {
		t.Fatal("the bootstrapped store has no segment to break")
	}
	for _, name := range segments {
		if err := os.WriteFile(name, []byte("not a segment"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.restart(); err == nil {
		t.Fatal("restart from a broken segment succeeded")
	}
	for i := 0; i < 2; i++ {
		if err := sys.tearDown(); err != nil {
			t.Errorf("tearDown %d after the failed restart: %v", i+1, err)
		}
	}
}

// A run is a fixed number of rounds: the count comes from the workload and
// the requested length alone, and is never too small for the p90s reported.
func TestRoundCounts(t *testing.T) {
	want := map[string][2]int{"facet-sessions": {2, 3}, "sparql-cold": {9, 2}, "sparql-hot": {23, 1}, "mixed-rw": {4, 2}}
	for _, w := range workloads(false) {
		if got := [2]int{w.roundsFor(runSeconds), w.tracedRounds()}; got != want[w.name] {
			t.Errorf("%s: %d rounds in a run of %d s and %d in the traced run's first pass, want %v", w.name, got[0], runSeconds, got[1], want[w.name])
		}
		if got := w.roundsFor(2 * runSeconds); got != 2*w.rounds {
			t.Errorf("%s: %d rounds in a run of twice the length, want %d", w.name, got, 2*w.rounds)
		}
		counts := w.classCounts()
		for _, class := range latencyClasses {
			if n := counts[class] * w.tracedRounds(); n > 0 && n < minTailSamples {
				t.Errorf("%s: the traced run takes the p90 of %s from %d samples", w.name, class, n)
			}
		}
		if n := len(w.round(w, 1, 0)) * w.roundsFor(0); n < minTailSamples {
			t.Errorf("%s: the shortest run has %d requests, too few for a p90", w.name, n)
		}
	}
}
