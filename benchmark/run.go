package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"rdfanalytics/internal/rdf"
)

// setUps is how many times a run sets the system up; setup_s is the median.
const setUps = 3

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pass is the outcome of one load-generation pass over HTTP.
type pass struct {
	samples   []sample  // every measured request, in order
	failed    []string  // the first failures, for the log
	roundP50  []float64 // median latency per round: the drift check
	opsPerSec float64   // correct ops / (wall - answer checking)
	wall      time.Duration
	allocs    uint64 // process-wide, answer checking excluded
	allocated uint64 // bytes
	heap      uint64 // HeapAlloc after a forced GC at the end of the pass
}

// runPass warms the system up, then replays the given number of rounds of the
// workload in a closed loop: one client, each request sent after the last
// byte of the previous answer.
func runPass(sys *system, w *workload, gold, rec *golden, seed int64, rounds int) (*pass, error) {
	c := newClient(sys.base, gold)
	defer c.close()
	c.record = rec
	if sys.st != nil {
		c.checkpoint = sys.st.Checkpoint
	}
	for _, o := range w.warmup(w) {
		if why := c.do(&o, false); why != "" {
			return nil, fmt.Errorf("warm-up %s %s: %s", o.Class, o.Key, why)
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := &pass{}
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, o := range w.between {
			c.do(&o, true) // counted as attempted, kept out of the latencies
		}
		from := len(c.samples)
		ops := w.round(w, seed, r)
		for k := range ops {
			c.do(&ops[k], true)
		}
		var lat []float64
		for _, s := range c.samples[from:] {
			lat = append(lat, s.ms)
		}
		p.roundP50 = append(p.roundP50, p50(lat))
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	p.samples, p.failed = c.samples, c.failures
	p.allocs = after.Mallocs - before.Mallocs - c.excludedAllocs
	p.allocated = after.TotalAlloc - before.TotalAlloc - c.excludedBytes
	p.opsPerSec = float64(len(p.samples)-p.failures()) / (p.wall - c.excluded).Seconds()
	// Twice: a sync.Pool keeps its buffers (multi-MB JSON encoders here)
	// through one collection.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	p.heap = after.HeapAlloc
	return p, nil
}

// failures counts the failed samples.
func (p *pass) failures() int {
	n := 0
	for _, s := range p.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// latencies returns the latency of every correct sample whose op passes keep.
func (p *pass) latencies(keep func(*sample) bool) []float64 {
	var out []float64
	for i := range p.samples {
		if s := &p.samples[i]; s.ok && keep(s) {
			out = append(out, s.ms)
		}
	}
	return out
}

func ofClass(class string) func(*sample) bool {
	return func(s *sample) bool { return s.class == class }
}

// reported says which requests enter the workload-wide latency percentiles:
// everything except checkpoints, which are background work, and the
// between-round housekeeping, neither of which a user waits for.
func reported(s *sample) bool { return s.class != "checkpoint" && s.class != "housekeeping" }

// endToEnd computes what a user of the system sees. Every value is defined
// on every workload. The bounded metrics are the ones BENCHMARK.json gates
// on; the timings are reported beside them without a bound (see timingSpec).
func endToEnd(p *pass, setupS float64) (bounded, timings map[string]metric, err error) {
	lat := p.latencies(reported)
	med, err := percentile(lat, 50)
	if err != nil {
		return nil, nil, err
	}
	tail, err := percentile(lat, 90)
	if err != nil {
		return nil, nil, err
	}
	ops := float64(len(lat))
	values := map[string]float64{
		"setup_s":         setupS,
		"p50_ms":          med,
		"p90_ms":          tail,
		"ops_per_s":       p.opsPerSec,
		"allocs_per_op":   float64(p.allocs) / ops,
		"alloc_mb_per_op": float64(p.allocated) / (1 << 20) / ops,
		"heap_mb":         float64(p.heap) / (1 << 20),
	}
	bounded, timings = map[string]metric{}, map[string]metric{}
	for _, spec := range endToEndSpec {
		bounded[spec.Name] = metric{values[spec.Name], spec.Unit}
	}
	for _, spec := range timingSpec {
		timings[spec.Name] = metric{values[spec.Name], spec.Unit}
	}
	return bounded, timings, nil
}

// result is the last line a run prints, plus the timings of a -trace 0 run,
// which are printed above it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Timings   map[string]metric `json:"-"`
}

// runEndToEnd is -trace 0: set the system up setUps times (the last one is
// kept), replay the rounds a run of the requested length has, check the
// durable workload's restart, and report the end-to-end metrics.
func runEndToEnd(w *workload, gold *golden, seed int64, seconds float64, outDir string, log func(string, ...any)) (*result, error) {
	var sys *system
	var setups []float64
	for i := 0; i < setUps; i++ {
		if sys != nil {
			if err := sys.tearDown(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		var err error
		if sys, err = setUp(w.laptops, w.durable, outDir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer func() { sys.tearDown() }()
	initial := sys.g.Len()
	p, err := runPass(sys, w, gold, nil, seed, w.roundsFor(seconds))
	if err != nil {
		return nil, err
	}
	failed := p.failures()
	for _, f := range p.failed {
		log("FAILED %s", f)
	}
	if w.durable {
		restartS, _, err := checkRestart(sys, w, gold, seed, len(p.roundP50), initial)
		if err != nil {
			log("FAILED restart: %v", err)
			failed++
		}
		log("restart_s %.4f s (store close, open, first query answered)", restartS)
	}
	sort.Float64s(setups)
	m, timings, err := endToEnd(p, setups[len(setups)/2])
	if err != nil {
		return nil, err
	}
	log("rounds %d, requests %d, wall %.2f s", len(p.roundP50), len(p.samples), p.wall.Seconds())
	for r, v := range p.roundP50 {
		log("round %d p50 %.4f ms", r, v)
	}
	return &result{Correct: failed == 0, Attempted: len(p.samples), Failed: failed, Metrics: m, Timings: timings}, nil
}

// checkRestart closes and reopens the store and asserts what durability
// promises: the graph holds exactly the initial triples plus the net inserts
// of the completed rounds, every acknowledged insert that was not deleted is
// readable, and the restored server answers a golden query.
func checkRestart(sys *system, w *workload, gold *golden, seed int64, rounds, initial int) (restartS float64, restore time.Duration, err error) {
	t := time.Now()
	if restore, err = sys.restart(); err != nil {
		return 0, 0, err
	}
	c := newClient(sys.base, gold)
	defer c.close()
	first := hotOnce()[0]
	why := c.do(&first, false)
	restartS = time.Since(t).Seconds()
	if why != "" {
		return restartS, restore, fmt.Errorf("first query after restart: %s", why)
	}
	net, live := mixedModel(w, seed, rounds)
	if got := sys.g.Len(); got != initial+net {
		return restartS, restore, fmt.Errorf("graph holds %d triples after restart, want %d initial + %d net inserted", got, initial, net)
	}
	for _, n := range live {
		note := rdf.Triple{S: rdf.NewIRI(ns + fmt.Sprintf("benchItem%d", n)), P: rdf.NewIRI(ns + "benchNote"), O: rdf.NewString(fmt.Sprintf("note %d", n))}
		if !sys.g.Has(note) {
			return restartS, restore, fmt.Errorf("acknowledged insert of benchItem%d is gone after restart", n)
		}
	}
	return restartS, restore, nil
}
