package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

// t0 is the fixed epoch of the synthetic timelines driven by these tests.
var t0 = time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)

func TestRingWraparound(t *testing.T) {
	r := newRing(4)
	for i := 0; i < 6; i++ {
		r.push(point{t: int64(i), v: float64(i)})
	}
	if r.len() != 4 {
		t.Fatalf("len = %d, want 4", r.len())
	}
	// The two oldest points (0, 1) were overwritten.
	for i := 0; i < 4; i++ {
		if got := r.at(i).v; got != float64(i+2) {
			t.Errorf("at(%d) = %v, want %v", i, got, i+2)
		}
	}
	last := r.last(2)
	if len(last) != 2 || last[0].v != 4 || last[1].v != 5 {
		t.Errorf("last(2) = %v, want [4 5]", last)
	}
	// Asking for more than retained returns everything, oldest first.
	if got := r.last(10); len(got) != 4 || got[0].v != 2 {
		t.Errorf("last(10) = %v", got)
	}
}

// TestIncreaseCounterReset checks the Prometheus increase() rule: a counter
// going 10 → 20 → 5 restarted between the samples, so the increase is
// (20-10) + 5 = 15, not -5.
func TestIncreaseCounterReset(t *testing.T) {
	pts := []point{{t: 0, v: 10}, {t: 1, v: 20}, {t: 2, v: 5}}
	if got := increase(pts); got != 15 {
		t.Fatalf("increase = %v, want 15", got)
	}
	if got := increase(nil); got != 0 {
		t.Fatalf("increase(nil) = %v, want 0", got)
	}
	if got := increase(pts[:1]); got != 0 {
		t.Fatalf("increase(single) = %v, want 0", got)
	}
}

// ingestTicks feeds n ticks of one counter at 10s spacing, values from vals.
func ingestTicks(db *TSDB, key string, kind SampleKind, vals []float64) time.Time {
	now := t0
	for i, v := range vals {
		now = t0.Add(time.Duration(i) * 10 * time.Second)
		db.Ingest(now, []Sample{{Key: key, Kind: kind, Value: v}})
	}
	return now
}

func TestWindowIncreaseWithReset(t *testing.T) {
	db := NewTSDB(TSDBConfig{Interval: 10 * time.Second})
	now := ingestTicks(db, "c", SampleCounter, []float64{100, 150, 10, 40})
	// Increase = 50 (100→150) + 10 (reset) + 30 (10→40) = 90.
	if got := db.WindowIncrease("c", now, time.Hour); got != 90 {
		t.Fatalf("window increase = %v, want 90", got)
	}
	// A 10s window at now covers the last two points plus one boundary
	// point before the window start (so boundary-crossing increases are not
	// lost): 150→10 reset (+10) then 10→40 (+30) = 40.
	if got := db.WindowIncrease("c", now, 10*time.Second); got != 40 {
		t.Fatalf("short window increase = %v, want 40", got)
	}
	if got := db.WindowIncrease("unknown", now, time.Hour); got != 0 {
		t.Fatalf("unknown series increase = %v, want 0", got)
	}
}

// TestCoarseFallback wraps the fine ring and checks long-window reads fall
// back to the coarse roll-up, preserving the increase.
func TestCoarseFallback(t *testing.T) {
	db := NewTSDB(TSDBConfig{
		Interval:     10 * time.Second,
		FineCapacity: 4, CoarseEvery: 3, CoarseCapacity: 100,
	})
	vals := make([]float64, 30)
	for i := range vals {
		vals[i] = float64(i * 10) // +10 per tick, 290 total
	}
	now := ingestTicks(db, "c", SampleCounter, vals)
	// The fine ring holds only the last 4 points (≈30s); a 10-minute window
	// must fall back to the coarse ring. Coarse ticks land every 3rd ingest
	// (values 0, 30, …, 270), so the increase is 270 — the roll-up lags the
	// newest fine samples by design.
	got := db.WindowIncrease("c", now, 10*time.Minute)
	if got != 270 {
		t.Fatalf("coarse window increase = %v, want 270", got)
	}
}

func TestMaxSeriesDrops(t *testing.T) {
	db := NewTSDB(TSDBConfig{Interval: time.Second, MaxSeries: 2})
	db.Ingest(t0, []Sample{
		{Key: "a", Kind: SampleGauge, Value: 1},
		{Key: "b", Kind: SampleGauge, Value: 2},
		{Key: "c", Kind: SampleGauge, Value: 3},
	})
	if db.SeriesCount() != 2 {
		t.Fatalf("series = %d, want 2", db.SeriesCount())
	}
	if db.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", db.Dropped())
	}
	// Existing series keep accepting samples past the cap.
	db.Ingest(t0.Add(time.Second), []Sample{{Key: "a", Kind: SampleGauge, Value: 9}})
	if v, ok := db.Latest("a"); !ok || v != 9 {
		t.Fatalf("latest a = %v %v", v, ok)
	}
}

func TestRateSeries(t *testing.T) {
	db := NewTSDB(TSDBConfig{Interval: 10 * time.Second})
	// Two counter series of one family: 2/s and 1/s over 10s ticks.
	for i := 0; i < 5; i++ {
		db.Ingest(t0.Add(time.Duration(i)*10*time.Second), []Sample{
			{Key: `req{endpoint="a"}`, Kind: SampleCounter, Value: float64(i * 20)},
			{Key: `req{endpoint="b"}`, Kind: SampleCounter, Value: float64(i * 10)},
			{Key: `other`, Kind: SampleCounter, Value: float64(i * 100)},
			{Key: `gauge`, Kind: SampleGauge, Value: 5},
		})
	}
	rates := db.RateSeries("req{", 10)
	if len(rates) != 4 {
		t.Fatalf("rates = %v, want 4 points", rates)
	}
	for i, r := range rates {
		if math.Abs(r-3) > 1e-9 { // 2/s + 1/s summed across the family
			t.Errorf("rate[%d] = %v, want 3", i, r)
		}
	}
	// Predicate selection: only endpoint="b".
	only := db.RateSeriesMatch(func(k string) bool {
		return strings.Contains(k, `endpoint="b"`)
	}, 10)
	for i, r := range only {
		if math.Abs(r-1) > 1e-9 {
			t.Errorf("matched rate[%d] = %v, want 1", i, r)
		}
	}
	// A counter reset clamps to the post-reset value instead of negative.
	db.Ingest(t0.Add(50*time.Second), []Sample{
		{Key: `req{endpoint="a"}`, Kind: SampleCounter, Value: 5},
		{Key: `req{endpoint="b"}`, Kind: SampleCounter, Value: 50},
	})
	rates = db.RateSeries("req{", 10)
	lastRate := rates[len(rates)-1]
	if lastRate < 0 {
		t.Fatalf("reset produced negative rate %v", lastRate)
	}
}

func TestGaugeSeries(t *testing.T) {
	db := NewTSDB(TSDBConfig{Interval: time.Second})
	now := ingestTicks(db, "g", SampleGauge, []float64{1, 2, 3})
	_ = now
	if got := db.GaugeSeries("g", 2); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("gauge series = %v, want [2 3]", got)
	}
	if got := db.GaugeSeries("missing", 2); got != nil {
		t.Fatalf("missing gauge series = %v, want nil", got)
	}
}

func TestQuantileSeries(t *testing.T) {
	db := NewTSDB(TSDBConfig{Interval: 10 * time.Second})
	// Histogram family "lat" with buckets 0.1, 1, +Inf. Tick 1 is the
	// baseline; tick 2 adds 100 observations all ≤ 1 (none ≤ 0.1).
	db.Ingest(t0, []Sample{
		{Key: `lat_bucket{le="0.1"}`, Kind: SampleCounter, Value: 0},
		{Key: `lat_bucket{le="1"}`, Kind: SampleCounter, Value: 0},
		{Key: `lat_bucket{le="+Inf"}`, Kind: SampleCounter, Value: 0},
	})
	db.Ingest(t0.Add(10*time.Second), []Sample{
		{Key: `lat_bucket{le="0.1"}`, Kind: SampleCounter, Value: 0},
		{Key: `lat_bucket{le="1"}`, Kind: SampleCounter, Value: 100},
		{Key: `lat_bucket{le="+Inf"}`, Kind: SampleCounter, Value: 100},
	})
	qs := db.QuantileSeries("lat", 0.95, time.Minute, 10)
	if len(qs) != 2 {
		t.Fatalf("quantile series = %v, want 2 points", qs)
	}
	// Tick 1 saw no observations → 0. Tick 2: rank 95 of 100 falls in the
	// (0.1, 1] bucket → 0.1 + 0.9·(95/100) = 0.955.
	if qs[0] != 0 {
		t.Errorf("q[0] = %v, want 0 (no observations yet)", qs[0])
	}
	if math.Abs(qs[1]-0.955) > 1e-9 {
		t.Errorf("q[1] = %v, want 0.955", qs[1])
	}
	if got := db.QuantileSeries("nosuch", 0.95, time.Minute, 10); got != nil {
		t.Errorf("unknown family = %v, want nil", got)
	}
}

func TestExport(t *testing.T) {
	db := NewTSDB(TSDBConfig{Interval: 10 * time.Second})
	ingestTicks(db, "reqs_total", SampleCounter, []float64{0, 10, 30})
	db.Ingest(t0, []Sample{{Key: "heap", Kind: SampleGauge, Value: 42}})
	out := db.Export("", "")
	if out.IntervalSeconds != 10 {
		t.Errorf("interval = %v, want 10", out.IntervalSeconds)
	}
	if out.SeriesCount != 2 || len(out.Series) != 2 {
		t.Fatalf("series count = %d/%d, want 2", out.SeriesCount, len(out.Series))
	}
	var counter *SeriesJSON
	for i := range out.Series {
		if out.Series[i].Key == "reqs_total" {
			counter = &out.Series[i]
		}
	}
	if counter == nil {
		t.Fatal("counter series missing from export")
	}
	if counter.Kind != "counter" || len(counter.Points) != 3 {
		t.Fatalf("counter export = %+v", counter)
	}
	if len(counter.Rates) != 2 || counter.Rates[0] != 1 || counter.Rates[1] != 2 {
		t.Fatalf("derived rates = %v, want [1 2]", counter.Rates)
	}
	// Substring filter.
	filtered := db.Export("heap", "")
	if len(filtered.Series) != 1 || filtered.Series[0].Key != "heap" {
		t.Fatalf("filtered export = %+v", filtered.Series)
	}
}

// TestSamplerTick drives a passive sampler with a synthetic clock over a
// fresh registry and checks scraped metrics, fingerprint series and the
// tick count.
func TestSamplerTick(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("rdfa_test_total")
	w := NewWorkload(16)
	s := NewSampler(reg, w, nil, TSDBConfig{Interval: 10 * time.Second})

	c.Inc()
	w.Observe(QueryRecord{
		FingerprintID: "fp1", Shape: "S", Kind: "sparql",
		Duration: 20 * time.Millisecond, Outcome: "ok", When: t0,
	}, nil)
	s.Tick(t0)
	c.Inc()
	s.Tick(t0.Add(10 * time.Second))

	db := s.DB()
	if v, ok := db.Latest("rdfa_test_total"); !ok || v != 2 {
		t.Fatalf("latest counter = %v %v, want 2", v, ok)
	}
	if v, ok := db.Latest(`rdfa_fp_latency_p95_ms{fingerprint="fp1"}`); !ok || v <= 0 {
		t.Fatalf("fingerprint p95 series = %v %v, want > 0", v, ok)
	}
	if got := db.WindowIncrease("rdfa_test_total", t0.Add(10*time.Second), time.Minute); got != 1 {
		t.Fatalf("counter increase across ticks = %v, want 1", got)
	}
	if got := s.ticks.Value(); got != 2 {
		t.Errorf("sampler ticks = %v, want 2", got)
	}
	// Nil receivers are inert.
	var nilS *Sampler
	nilS.Tick(t0)
	nilS.Close()
}

// TestRegistrySamples checks the scrape API's series shapes: counters and
// gauges per label set, histograms as _count/_sum per series plus
// family-aggregated cumulative _bucket series.
func TestRegistrySamples(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits_total", "route", "a").Inc()
	reg.Counter("hits_total", "route", "b").Add(2)
	reg.Gauge("temp").Set(7)
	h := reg.Histogram("lat_seconds", []float64{0.1, 1}, "ep", "x")
	h.Observe(0.05)
	h.Observe(0.5)

	byKey := map[string]Sample{}
	for _, s := range reg.Samples() {
		byKey[s.Key] = s
	}
	if s := byKey[`hits_total{route="a"}`]; s.Kind != SampleCounter || s.Value != 1 {
		t.Errorf("counter a = %+v", s)
	}
	if s := byKey[`hits_total{route="b"}`]; s.Value != 2 {
		t.Errorf("counter b = %+v", s)
	}
	if s := byKey["temp"]; s.Kind != SampleGauge || s.Value != 7 {
		t.Errorf("gauge = %+v", s)
	}
	if s := byKey[`lat_seconds_count{ep="x"}`]; s.Kind != SampleCounter || s.Value != 2 {
		t.Errorf("hist count = %+v", s)
	}
	if s, ok := byKey[`lat_seconds_sum{ep="x"}`]; !ok || math.Abs(s.Value-0.55) > 1e-9 {
		t.Errorf("hist sum = %+v", s)
	}
	// Aggregated buckets are cumulative: ≤0.1 has 1, ≤1 has 2, +Inf has 2.
	if s := byKey[`lat_seconds_bucket{le="0.1"}`]; s.Value != 1 {
		t.Errorf("bucket 0.1 = %+v", s)
	}
	if s := byKey[`lat_seconds_bucket{le="1"}`]; s.Value != 2 {
		t.Errorf("bucket 1 = %+v", s)
	}
	if s := byKey[`lat_seconds_bucket{le="+Inf"}`]; s.Value != 2 {
		t.Errorf("bucket +Inf = %+v", s)
	}
}
