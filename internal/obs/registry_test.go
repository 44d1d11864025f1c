package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestRegistryParallel hammers one registry from many goroutines — the
// concurrency contract of the whole package. Run under -race (make check).
func TestRegistryParallel(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 500
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				r.Counter("c_total", "worker", []string{"a", "b"}[i%2]).Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h_seconds", nil, "op", "x").Observe(float64(j%10) / 1000)
				if j%50 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Error(err)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	got := r.Counter("c_total", "worker", "a").Value() + r.Counter("c_total", "worker", "b").Value()
	if got != goroutines*perG {
		t.Fatalf("counter total = %d, want %d", got, goroutines*perG)
	}
	if v := r.Gauge("g").Value(); v != goroutines*perG {
		t.Fatalf("gauge = %v, want %d", v, goroutines*perG)
	}
	if n := r.Histogram("h_seconds", nil, "op", "x").Count(); n != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", n, goroutines*perG)
	}
}

// TestHistogramQuantiles checks the interpolation estimate against a known
// uniform distribution: 1..1000 observations of i/1000 seconds.
func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram(DefBuckets)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000) // uniform on (0, 1]
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.50, 0.50, 0.26}, // true p50 = 0.5, bucket (0.25, 0.5] → upper half
		{0.95, 0.95, 0.06}, // bucket (0.5, 1] interpolates well here
		{0.99, 0.99, 0.02},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("Quantile(%v) = %v, want %v ± %v", tc.q, got, tc.want, tc.tol)
		}
	}
	// Exact-bucket check with custom bounds: values land on bound edges.
	h2 := newHistogram([]float64{1, 2, 3, 4})
	for _, v := range []float64{1, 1, 2, 2, 3, 3, 4, 4} {
		h2.Observe(v)
	}
	if got := h2.Quantile(0.5); got < 1 || got > 2 {
		t.Errorf("p50 of {1,1,2,2,3,3,4,4} = %v, want in [1,2]", got)
	}
	if got := h2.Quantile(1.0); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	// Overflow clamps to the highest finite bound.
	h3 := newHistogram([]float64{1})
	h3.Observe(100)
	if got := h3.Quantile(0.99); got != 1 {
		t.Errorf("overflow quantile = %v, want clamp to 1", got)
	}
	if h3.Quantile(0.5) != 1 {
		t.Errorf("single-overflow p50 should clamp to 1")
	}
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 || nilH.Count() != 0 {
		t.Error("nil histogram must report zeros")
	}
}

// TestWritePrometheus asserts on the exposition format line by line.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "endpoint", "/api/run", "code", "200").Add(3)
	r.Help("req_total", "requests served")
	r.Gauge("active").Set(2.5)
	h := r.Histogram("lat_seconds", []float64{0.1, 1}, "op", "q")
	// Exactly representable floats, so the rendered sum is exact.
	h.Observe(0.0625)
	h.Observe(0.5)
	h.Observe(5)
	r.GaugeFunc("fn_gauge", func() float64 { return 7 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"# HELP req_total requests served",
		"# TYPE req_total counter",
		`req_total{endpoint="/api/run",code="200"} 3`,
		"# TYPE active gauge",
		"active 2.5",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{op="q",le="0.1"} 1`,
		`lat_seconds_bucket{op="q",le="1"} 2`,
		`lat_seconds_bucket{op="q",le="+Inf"} 3`,
		`lat_seconds_sum{op="q"} 5.5625`,
		`lat_seconds_count{op="q"} 3`,
		"# TYPE fn_gauge gauge",
		"fn_gauge 7",
	}
	got := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("line count = %d, want %d\n%s", len(got), len(want), sb.String())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "q", "a\"b\\c\nd").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `q="a\"b\\c\nd"`) {
		t.Errorf("label not escaped: %s", sb.String())
	}
}

// TestLookupsDoNotAllocate: asking the registry for a series it holds —
// with one label pair, two, an escaped value, or none — returns that series
// and allocates nothing, so a call site need not cache its handles.
func TestLookupsDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "op", "scan")
	c2 := r.Counter("c_total", "op", "scan", "phase", "a\"b\nc")
	g := r.Gauge("g")
	h := r.Histogram("h_seconds", nil, "op", "filter")
	allocs := testing.AllocsPerRun(100, func() {
		if r.Counter("c_total", "op", "scan") != c || r.Counter("c_total", "op", "scan", "phase", "a\"b\nc") != c2 ||
			r.Gauge("g") != g || r.Histogram("h_seconds", nil, "op", "filter") != h {
			t.Fatal("a lookup returned another series")
		}
	})
	if allocs != 0 {
		t.Errorf("looking up existing series allocates %v times, want 0", allocs)
	}
	if r.Counter("c_total", "op", "filter") == c {
		t.Error("another label value found the same series")
	}
}

func TestNilMetricHandles(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(2)
	g.Set(1)
	g.Inc()
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Sum() != 0 {
		t.Error("nil handles must be inert")
	}
}
