package obs

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The telemetry time-series engine. A TSDB retains the recent history of
// every scraped metric in bounded multi-resolution ring buffers — a fine
// ring (default 10s × 360 ≈ one hour) for dashboards and fast SLO windows,
// and a coarse ring (default 5m × 288 ≈ one day) for slow burn-rate
// windows — so the process can answer "what did p95 / heap / error rate do
// over the last hour?" without an external monitoring stack. A Sampler
// drives it: at a fixed interval it scrapes every registry metric (via
// Registry.Samples), Go runtime statistics, and the workload profiler's
// per-fingerprint latency quantiles, then hands the clock tick to the SLO
// evaluator. Counters are stored cumulatively; deltas and rates are derived
// on read with counter-reset detection, the Prometheus increase() rule.

// Default retention geometry: fine samples every 10s kept for one hour,
// coarse roll-ups every 5m kept for one day.
const (
	DefaultSampleInterval = 10 * time.Second
	DefaultFineCapacity   = 360
	DefaultCoarseEvery    = 30 // fine ticks per coarse tick: 30 × 10s = 5m
	DefaultCoarseCapacity = 288
	// DefaultMaxSeries bounds the number of tracked series; beyond it new
	// keys are dropped (and counted) rather than growing without bound.
	DefaultMaxSeries = 4096
)

// point is one retained sample.
type point struct {
	t int64 // unix milliseconds
	v float64
}

// ring is a fixed-capacity circular buffer of points.
type ring struct {
	pts    []point
	next   int
	filled bool
}

func newRing(capacity int) *ring {
	return &ring{pts: make([]point, capacity)}
}

func (r *ring) push(p point) {
	r.pts[r.next] = p
	r.next = (r.next + 1) % len(r.pts)
	if r.next == 0 {
		r.filled = true
	}
}

// len returns how many points are held.
func (r *ring) len() int {
	if r.filled {
		return len(r.pts)
	}
	return r.next
}

// at returns the i-th oldest point (0 = oldest).
func (r *ring) at(i int) point {
	if r.filled {
		return r.pts[(r.next+i)%len(r.pts)]
	}
	return r.pts[i]
}

// last returns the newest n points, oldest first.
func (r *ring) last(n int) []point {
	have := r.len()
	if n > have {
		n = have
	}
	out := make([]point, n)
	for i := 0; i < n; i++ {
		out[i] = r.at(have - n + i)
	}
	return out
}

// series is one tracked metric with both resolutions.
type series struct {
	kind   SampleKind
	fine   *ring
	coarse *ring
}

// TSDB is the bounded in-process time-series store. All methods are safe
// for concurrent use; a nil *TSDB is a valid no-op reader.
type TSDB struct {
	mu          sync.Mutex
	interval    time.Duration
	coarseEvery int
	fineCap     int
	coarseCap   int
	maxSeries   int
	series      map[string]*series
	order       []string
	ticks       uint64
	dropped     uint64
}

// TSDBConfig sizes a TSDB; zero fields take the package defaults.
type TSDBConfig struct {
	Interval       time.Duration
	FineCapacity   int
	CoarseEvery    int
	CoarseCapacity int
	MaxSeries      int
}

func (c TSDBConfig) withDefaults() TSDBConfig {
	if c.Interval <= 0 {
		c.Interval = DefaultSampleInterval
	}
	if c.FineCapacity <= 0 {
		c.FineCapacity = DefaultFineCapacity
	}
	if c.CoarseEvery <= 0 {
		c.CoarseEvery = DefaultCoarseEvery
	}
	if c.CoarseCapacity <= 0 {
		c.CoarseCapacity = DefaultCoarseCapacity
	}
	if c.MaxSeries <= 0 {
		c.MaxSeries = DefaultMaxSeries
	}
	return c
}

// NewTSDB builds an empty time-series store.
func NewTSDB(cfg TSDBConfig) *TSDB {
	cfg = cfg.withDefaults()
	return &TSDB{
		interval:    cfg.Interval,
		coarseEvery: cfg.CoarseEvery,
		fineCap:     cfg.FineCapacity,
		coarseCap:   cfg.CoarseCapacity,
		maxSeries:   cfg.MaxSeries,
		series:      map[string]*series{},
	}
}

// Interval returns the fine sampling interval.
func (db *TSDB) Interval() time.Duration {
	if db == nil {
		return 0
	}
	return db.interval
}

// Ingest stores one batch of samples observed at now. Every Ingest call is
// one fine tick; every coarseEvery-th tick also lands in the coarse rings
// (counters keep their cumulative value, so window deltas work identically
// at both resolutions).
func (db *TSDB) Ingest(now time.Time, samples []Sample) {
	if db == nil {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.ticks++
	coarse := db.ticks%uint64(db.coarseEvery) == 1 || db.coarseEvery == 1
	ms := now.UnixMilli()
	for _, sm := range samples {
		s, ok := db.series[sm.Key]
		if !ok {
			if len(db.series) >= db.maxSeries {
				db.dropped++
				continue
			}
			s = &series{
				kind:   sm.Kind,
				fine:   newRing(db.fineCap),
				coarse: newRing(db.coarseCap),
			}
			db.series[sm.Key] = s
			db.order = append(db.order, sm.Key)
		}
		p := point{t: ms, v: sm.Value}
		s.fine.push(p)
		if coarse {
			s.coarse.push(p)
		}
	}
}

// Dropped reports how many samples were discarded because the series cap
// was reached.
func (db *TSDB) Dropped() uint64 {
	if db == nil {
		return 0
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.dropped
}

// SeriesCount reports how many series are tracked.
func (db *TSDB) SeriesCount() int {
	if db == nil {
		return 0
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.series)
}

// Latest returns the newest value of key (ok=false when the series is
// unknown or empty).
func (db *TSDB) Latest(key string) (float64, bool) {
	if db == nil {
		return 0, false
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	s, ok := db.series[key]
	if !ok || s.fine.len() == 0 {
		return 0, false
	}
	return s.fine.at(s.fine.len() - 1).v, true
}

// increase computes the reset-aware cumulative increase over pts: positive
// steps accumulate; a negative step means the underlying counter restarted,
// so the post-reset value itself is the increase since the reset (the
// Prometheus increase() approximation).
func increase(pts []point) float64 {
	total := 0.0
	for i := 1; i < len(pts); i++ {
		d := pts[i].v - pts[i-1].v
		if d < 0 {
			d = pts[i].v
		}
		total += d
	}
	return total
}

// windowPoints returns the retained points of key covering [now-window,
// now], preferring the fine ring when it still spans the window start and
// falling back to the coarse ring for longer horizons. One point older than
// the window start is included when available, so the increase over the
// window boundary is not lost. Caller holds db.mu.
func (db *TSDB) windowPoints(s *series, now time.Time, window time.Duration) []point {
	lo := now.Add(-window).UnixMilli()
	pick := func(r *ring) []point {
		n := r.len()
		start := n
		for i := n - 1; i >= 0; i-- {
			if r.at(i).t < lo {
				break
			}
			start = i
		}
		if start > 0 {
			start-- // include the sample just before the window
		}
		out := make([]point, 0, n-start)
		for i := start; i < n; i++ {
			out = append(out, r.at(i))
		}
		return out
	}
	// The fine ring spans the window iff its oldest retained point is not
	// newer than the window start (or the series is younger than the window).
	if n := s.fine.len(); n > 0 {
		if s.fine.at(0).t <= lo || !s.fine.filled {
			return pick(s.fine)
		}
	}
	if s.coarse.len() > 0 {
		return pick(s.coarse)
	}
	return pick(s.fine)
}

// WindowIncrease returns the reset-aware increase of the counter series key
// over the trailing window. Unknown series report 0.
func (db *TSDB) WindowIncrease(key string, now time.Time, window time.Duration) float64 {
	if db == nil {
		return 0
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	s, ok := db.series[key]
	if !ok {
		return 0
	}
	return increase(db.windowPoints(s, now, window))
}

// RateSeries derives a per-second rate series from the newest n+1 fine
// samples of every counter series matching prefix, summed per tick across
// the matches (so "all request counters" becomes one throughput line).
// Counter resets clamp to the post-reset value. Returns up to n rates,
// oldest first.
func (db *TSDB) RateSeries(prefix string, n int) []float64 {
	return db.RateSeriesMatch(func(key string) bool {
		return strings.HasPrefix(key, prefix)
	}, n)
}

// RateSeriesMatch is RateSeries with an arbitrary key predicate, for
// selections a prefix cannot express (e.g. one status class across all
// endpoint labels).
func (db *TSDB) RateSeriesMatch(match func(key string) bool, n int) []float64 {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	sums := map[int64]float64{}
	var times []int64
	for key, s := range db.series {
		if s.kind != SampleCounter || !match(key) {
			continue
		}
		pts := s.fine.last(n + 1)
		for i := 1; i < len(pts); i++ {
			d := pts[i].v - pts[i-1].v
			if d < 0 {
				d = pts[i].v
			}
			dt := float64(pts[i].t-pts[i-1].t) / 1000
			if dt <= 0 {
				continue
			}
			if _, ok := sums[pts[i].t]; !ok {
				times = append(times, pts[i].t)
			}
			sums[pts[i].t] += d / dt
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	out := make([]float64, len(times))
	for i, t := range times {
		out[i] = sums[t]
	}
	if len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// GaugeSeries returns the newest n fine values of a gauge (or any) series,
// oldest first.
func (db *TSDB) GaugeSeries(key string, n int) []float64 {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	s, ok := db.series[key]
	if !ok {
		return nil
	}
	pts := s.fine.last(n)
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.v
	}
	return out
}

// QuantileSeries derives a windowed q-quantile series for the histogram
// family name from its aggregated `name_bucket{le="..."}` counter series:
// for each of the newest n fine ticks it takes the bucket increases over
// the preceding window and interpolates the quantile, the
// histogram_quantile rule applied to deltas instead of lifetime counts.
// Ticks whose window saw no observations carry the previous value forward
// (0 before the first observation).
func (db *TSDB) QuantileSeries(name string, q float64, window time.Duration, n int) []float64 {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	type bseries struct {
		le  float64
		pts []point
	}
	prefix := name + `_bucket{le="`
	var buckets []bseries
	for key, s := range db.series {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		leStr := strings.TrimSuffix(strings.TrimPrefix(key, prefix), `"}`)
		le, err := strconv.ParseFloat(leStr, 64)
		if err != nil {
			continue
		}
		buckets = append(buckets, bseries{le: le, pts: s.fine.last(s.fine.len())})
	}
	if len(buckets) == 0 {
		return nil
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	// All bucket series are ingested together, so they share tick times; use
	// the first bucket's timeline.
	timeline := buckets[0].pts
	if len(timeline) > n {
		timeline = timeline[len(timeline)-n:]
	}
	out := make([]float64, 0, len(timeline))
	prev := 0.0
	for _, tick := range timeline {
		lo := tick.t - window.Milliseconds()
		// Per-bucket increase over (lo, tick.t].
		incs := make([]float64, len(buckets))
		total := 0.0
		for bi, b := range buckets {
			var first, last *point
			for i := range b.pts {
				p := &b.pts[i]
				if p.t < lo || p.t > tick.t {
					continue
				}
				if first == nil {
					first = p
				}
				last = p
			}
			if first == nil || last == nil {
				continue
			}
			inc := last.v - first.v
			if inc < 0 {
				inc = last.v
			}
			incs[bi] = inc
		}
		if len(incs) > 0 {
			total = incs[len(incs)-1] // buckets are cumulative: top bucket ≈ total
		}
		if total <= 0 {
			out = append(out, prev)
			continue
		}
		rank := q * total
		cum := 0.0
		v := buckets[len(buckets)-1].le
		for bi, b := range buckets {
			if incs[bi] >= rank {
				loB := 0.0
				if bi > 0 {
					loB = buckets[bi-1].le
				}
				span := incs[bi] - cum
				frac := 1.0
				if span > 0 {
					frac = (rank - cum) / span
				}
				if frac < 0 {
					frac = 0
				} else if frac > 1 {
					frac = 1
				}
				v = loB + (b.le-loB)*frac
				break
			}
			cum = incs[bi]
		}
		prev = v
		out = append(out, v)
	}
	return out
}

// SeriesJSON is one exported series of GET /api/timeseries.
type SeriesJSON struct {
	Key  string `json:"key"`
	Kind string `json:"kind"` // counter | gauge
	// Points are [unix_ms, value] pairs, oldest first. Counters export the
	// raw cumulative values; Rates carries their derived per-second rates
	// (aligned with Points from the second element on).
	Points [][2]float64 `json:"points"`
	Rates  []float64    `json:"rates,omitempty"`
}

// TimeseriesJSON is the GET /api/timeseries payload.
type TimeseriesJSON struct {
	IntervalSeconds float64      `json:"interval_seconds"`
	Resolution      string       `json:"resolution"`
	SeriesCount     int          `json:"series_count"`
	Dropped         uint64       `json:"dropped_samples,omitempty"`
	Series          []SeriesJSON `json:"series"`
}

// Export renders every series whose key contains filter (empty matches
// all) at the requested resolution ("coarse" for the roll-up ring,
// anything else for the fine ring), with per-second rates derived for
// counters. Series appear in first-seen order.
func (db *TSDB) Export(filter, resolution string) TimeseriesJSON {
	if db == nil {
		return TimeseriesJSON{}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	out := TimeseriesJSON{
		IntervalSeconds: db.interval.Seconds(),
		Resolution:      "fine",
		SeriesCount:     len(db.series),
		Dropped:         db.dropped,
	}
	if resolution == "coarse" {
		out.Resolution = "coarse"
		out.IntervalSeconds = db.interval.Seconds() * float64(db.coarseEvery)
	}
	for _, key := range db.order {
		if filter != "" && !strings.Contains(key, filter) {
			continue
		}
		s := db.series[key]
		r := s.fine
		if resolution == "coarse" {
			r = s.coarse
		}
		pts := r.last(r.len())
		sj := SeriesJSON{Key: key, Kind: "gauge", Points: make([][2]float64, len(pts))}
		for i, p := range pts {
			sj.Points[i] = [2]float64{float64(p.t), p.v}
		}
		if s.kind == SampleCounter {
			sj.Kind = "counter"
			for i := 1; i < len(pts); i++ {
				d := pts[i].v - pts[i-1].v
				if d < 0 {
					d = pts[i].v
				}
				dt := float64(pts[i].t-pts[i-1].t) / 1000
				if dt <= 0 {
					dt = math.Inf(1)
				}
				sj.Rates = append(sj.Rates, d/dt)
			}
		}
		out.Series = append(out.Series, sj)
	}
	return out
}

// ---- sampler ----

// maxFingerprintSeries caps how many per-fingerprint latency series the
// sampler tracks (the most frequent fingerprints win).
const maxFingerprintSeries = 20

// Sampler drives a TSDB: on every tick it scrapes the registry, the Go
// runtime, and the workload profiler's per-fingerprint latency quantiles,
// then lets the attached SLO set evaluate burn rates on the fresh data.
// Start launches a background ticker; tests call Tick directly with
// synthetic clocks.
type Sampler struct {
	db       *TSDB
	reg      *Registry
	workload *Workload
	slos     *SLOSet
	interval time.Duration

	stop chan struct{}
	done chan struct{}
	once sync.Once

	ticks    *Counter
	duration *Gauge
}

// NewSampler builds a sampler over reg (nil means the Default registry)
// feeding a fresh TSDB sized by cfg. workload and the SLO set are optional.
func NewSampler(reg *Registry, workload *Workload, slos *SLOSet, cfg TSDBConfig) *Sampler {
	if reg == nil {
		reg = Default
	}
	cfg = cfg.withDefaults()
	s := &Sampler{
		db:       NewTSDB(cfg),
		reg:      reg,
		workload: workload,
		slos:     slos,
		interval: cfg.Interval,
		ticks:    reg.Counter("rdfa_sampler_ticks_total"),
		duration: reg.Gauge("rdfa_sampler_tick_seconds"),
	}
	reg.Help("rdfa_sampler_ticks_total", "Telemetry sampler ticks taken.")
	return s
}

// DB returns the sampler's time-series store.
func (s *Sampler) DB() *TSDB {
	if s == nil {
		return nil
	}
	return s.db
}

// SLOs returns the attached SLO set (may be nil).
func (s *Sampler) SLOs() *SLOSet {
	if s == nil {
		return nil
	}
	return s.slos
}

// Tick takes one sample at now: registry scrape (which includes the
// runtime gauges when RegisterRuntimeMetrics ran), per-fingerprint latency
// quantiles, then SLO evaluation over the updated store.
func (s *Sampler) Tick(now time.Time) {
	if s == nil {
		return
	}
	start := time.Now()
	samples := s.reg.Samples()
	if s.workload != nil {
		for _, fp := range s.workload.Latencies(maxFingerprintSeries) {
			labels := `{fingerprint="` + fp.ID + `"}`
			samples = append(samples,
				Sample{Key: "rdfa_fp_latency_p50_ms" + labels, Kind: SampleGauge, Value: fp.P50Ms},
				Sample{Key: "rdfa_fp_latency_p95_ms" + labels, Kind: SampleGauge, Value: fp.P95Ms},
				Sample{Key: "rdfa_fp_queries_total" + labels, Kind: SampleCounter, Value: float64(fp.Count)})
		}
	}
	s.db.Ingest(now, samples)
	s.slos.Evaluate(now, s.db)
	s.ticks.Inc()
	s.duration.Set(time.Since(start).Seconds())
}

// Start launches the background sampling loop (taking an immediate first
// tick so endpoints have data right away) and returns s for chaining.
func (s *Sampler) Start() *Sampler {
	if s == nil || s.stop != nil {
		return s
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		s.Tick(time.Now())
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case now := <-t.C:
				s.Tick(now)
			}
		}
	}()
	return s
}

// Close stops the background loop (no-op when never started).
func (s *Sampler) Close() {
	if s == nil || s.stop == nil {
		return
	}
	s.once.Do(func() {
		close(s.stop)
		<-s.done
	})
}
