// Package obs is the observability substrate of the system: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket latency
// histograms with quantile estimation), a lightweight span tracer threaded
// through SPARQL evaluation and the facet/HIFUN layers, and a slow-query
// log. Everything is stdlib-only; the registry renders itself in the
// Prometheus text exposition format so any standard scraper can consume
// GET /metrics.
//
// Design constraints, in order: recording must be cheap enough to leave on
// in production (atomic operations on pre-resolved handles, no allocation
// on the hot path), disabled tracing must cost one nil check, and output
// must be deterministic (families in registration order, series in creation
// order) so tests can assert on it line by line.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Default is the process-wide registry. Library instrumentation (the sparql
// evaluator's phase timings, facet computation, HIFUN translation) records
// here; the HTTP server exposes it at GET /metrics.
var Default = NewRegistry()

// DefBuckets are the default latency histogram bucket upper bounds, in
// seconds: 100µs .. 10s in a coarse exponential ladder, sized for
// interactive-query latencies (the paper's response-time budget is seconds).
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k kind) String() string {
	switch k {
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

// family groups all series (label combinations) of one metric name.
type family struct {
	name    string
	help    string
	kind    kind
	buckets []float64 // histograms only

	mu     sync.Mutex
	series map[string]any // label string -> *Counter | *Gauge | *Histogram
	order  []string       // label strings in creation order
	fn     func() float64 // kindCounterFunc / kindGaugeFunc
}

// Registry is a concurrency-safe collection of metric families. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// family returns (creating if needed) the family for name. A kind mismatch
// on an existing name panics: it is always a programming error, and silent
// coercion would corrupt the exposition output.
func (r *Registry) family(name string, k kind, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		if k == kindHistogram && buckets == nil {
			buckets = DefBuckets
		}
		f = &family{name: name, kind: k, buckets: buckets, series: map[string]any{}}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, k))
	}
	return f
}

// Help attaches a # HELP line to a metric family (created lazily as a
// counter if it does not exist yet; the kind is corrected on first real
// use only if it matches — in practice call Help after the first handle).
func (r *Registry) Help(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		f.help = text
	}
}

// labelKey renders "k1=v1,k2=v2,..." pairs into the exposition label string
// `k1="v1",k2="v2"`. Pairs must come in a consistent order per call site
// (they are not sorted: call sites own their label order, and sorting per
// call would allocate).
func labelKey(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	var sb strings.Builder
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(pairs[i])
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(pairs[i+1]))
		sb.WriteByte('"')
	}
	return sb.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// Counter returns the counter for name with the given label pairs
// (k1, v1, k2, v2, ...), creating it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	f := r.family(name, kindCounter, nil)
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.series[key]; ok {
		return c.(*Counter)
	}
	c := &Counter{}
	f.series[key] = c
	f.order = append(f.order, key)
	return c
}

// Gauge returns the gauge for name with the given label pairs.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	f := r.family(name, kindGauge, nil)
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if g, ok := f.series[key]; ok {
		return g.(*Gauge)
	}
	g := &Gauge{}
	f.series[key] = g
	f.order = append(f.order, key)
	return g
}

// Histogram returns the histogram for name with the given label pairs.
// buckets fixes the family's bucket bounds on first creation (nil means
// DefBuckets); later calls may pass nil to reuse the family's bounds.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	f := r.family(name, kindHistogram, buckets)
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if h, ok := f.series[key]; ok {
		return h.(*Histogram)
	}
	h := newHistogram(f.buckets)
	f.series[key] = h
	f.order = append(f.order, key)
	return h
}

// CounterFunc registers (or replaces) a counter whose value is computed at
// exposition time — used to surface counters owned elsewhere, e.g. the RDF
// graph's cardinality-cache hit/miss tallies. fn must be safe to call from
// any goroutine.
func (r *Registry) CounterFunc(name string, fn func() float64) {
	f := r.family(name, kindCounterFunc, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// GaugeFunc registers (or replaces) a gauge computed at exposition time
// (e.g. active session count).
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	f := r.family(name, kindGaugeFunc, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Families appear in registration order and series
// in creation order, so the output is deterministic for a fixed sequence of
// instrument calls.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()
	for _, f := range fams {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
		return err
	}
	if f.kind == kindCounterFunc || f.kind == kindGaugeFunc {
		v := 0.0
		if f.fn != nil {
			v = f.fn()
		}
		_, err := fmt.Fprintf(w, "%s %s\n", f.name, formatValue(v))
		return err
	}
	for _, key := range f.order {
		s := f.series[key]
		suffix := ""
		if key != "" {
			suffix = "{" + key + "}"
		}
		switch m := s.(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, suffix, m.Value()); err != nil {
				return err
			}
		case *Gauge:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, suffix, formatValue(m.Value())); err != nil {
				return err
			}
		case *Histogram:
			if err := m.write(w, f.name, key); err != nil {
				return err
			}
		}
	}
	return nil
}

// SampleKind classifies a scraped sample for rate derivation: counters are
// cumulative (the time-series layer derives deltas, handling resets),
// gauges are instantaneous.
type SampleKind int

// The sample kinds.
const (
	// SampleCounter marks a cumulative, monotonically increasing value.
	SampleCounter SampleKind = iota
	// SampleGauge marks an instantaneous value.
	SampleGauge
)

// Sample is one scraped metric value, keyed exactly as the Prometheus
// exposition renders it (`name{labels}`), so time-series keys and scrape
// output line up one-to-one.
type Sample struct {
	Key   string
	Kind  SampleKind
	Value float64
}

// Samples scrapes every registered metric into a flat sample list for the
// time-series sampler: counters and gauges one sample per label set,
// histograms as `name_count`/`name_sum` counters per label set plus
// family-aggregated `name_bucket{le="..."}` cumulative counters (aggregated
// across label sets, so bucket-series cardinality stays bounded by the
// bucket ladder, not by labels — windowed quantiles are derived from their
// deltas). Func metrics are evaluated at scrape time.
func (r *Registry) Samples() []Sample {
	r.mu.Lock()
	fams := make([]*family, len(r.order))
	for i, n := range r.order {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()
	var out []Sample
	for _, f := range fams {
		f.mu.Lock()
		switch f.kind {
		case kindCounterFunc, kindGaugeFunc:
			v := 0.0
			if f.fn != nil {
				v = f.fn()
			}
			k := SampleCounter
			if f.kind == kindGaugeFunc {
				k = SampleGauge
			}
			out = append(out, Sample{Key: f.name, Kind: k, Value: v})
		case kindCounter:
			for _, key := range f.order {
				out = append(out, Sample{
					Key: seriesKey(f.name, key), Kind: SampleCounter,
					Value: float64(f.series[key].(*Counter).Value()),
				})
			}
		case kindGauge:
			for _, key := range f.order {
				out = append(out, Sample{
					Key: seriesKey(f.name, key), Kind: SampleGauge,
					Value: f.series[key].(*Gauge).Value(),
				})
			}
		case kindHistogram:
			var bounds []float64
			var bucketCum []uint64
			var total uint64
			for _, key := range f.order {
				h := f.series[key].(*Histogram)
				out = append(out,
					Sample{Key: seriesKey(f.name+"_count", key), Kind: SampleCounter, Value: float64(h.Count())},
					Sample{Key: seriesKey(f.name+"_sum", key), Kind: SampleCounter, Value: h.Sum()})
				if bounds == nil {
					// All series of a family share the same (sorted) bounds.
					bounds = h.bounds
					bucketCum = make([]uint64, len(bounds))
				}
				cum := uint64(0)
				for i := range h.bounds {
					cum += h.counts[i].Load()
					bucketCum[i] += cum
				}
				total += h.Count()
			}
			for i, b := range bounds {
				out = append(out, Sample{
					Key:   f.name + `_bucket{le="` + formatValue(b) + `"}`,
					Kind:  SampleCounter,
					Value: float64(bucketCum[i]),
				})
			}
			// The implicit +Inf bucket carries the family total, so windowed
			// quantiles count observations above the top finite bound.
			if bounds != nil {
				out = append(out, Sample{
					Key:   f.name + `_bucket{le="+Inf"}`,
					Kind:  SampleCounter,
					Value: float64(total),
				})
			}
		}
		f.mu.Unlock()
	}
	return out
}

// seriesKey renders the exposition identity of one series.
func seriesKey(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float metric that can move in both directions. It stores the
// value as float64 bits so Set accepts fractional values (e.g. ratios).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (CAS loop; gauges are low-frequency).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution of float observations (latency
// seconds by convention). Observation is lock-free: one linear bucket scan
// (the bucket count is small) plus three atomic adds.
type Histogram struct {
	bounds []float64       // upper bounds, ascending; implicit +Inf last
	counts []atomic.Uint64 // len(bounds)+1
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64
	// exemplars holds the most recent exemplar per bucket (len(bounds)+1,
	// last-writer-wins), rendered only by the OpenMetrics exposition.
	exemplars []atomic.Pointer[exemplar]
}

// exemplar links one observation to the trace that produced it.
type exemplar struct {
	traceID string
	value   float64
	whenMS  int64 // unix milliseconds
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		bounds:    b,
		counts:    make([]atomic.Uint64, len(b)+1),
		exemplars: make([]atomic.Pointer[exemplar], len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// ObserveExemplar records v like Observe and additionally attaches traceID
// as the observation's exemplar on the bucket it lands in. The exemplar is
// last-writer-wins per bucket: cheap, bounded, and biased toward recency,
// which is what a drill-down from a current alert wants.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	h.Observe(v)
	if traceID == "" {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.exemplars[i].Store(&exemplar{traceID: traceID, value: v, whenMS: nowUnixMilli()})
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the bucket that contains it, the standard Prometheus
// histogram_quantile estimate. Observations in the overflow (+Inf) bucket
// clamp to the highest finite bound. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := uint64(0)
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			if i >= len(h.bounds) {
				// Overflow bucket: no finite upper bound to interpolate to.
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

func (h *Histogram) write(w io.Writer, name, key string) error {
	sep := ""
	if key != "" {
		sep = ","
	}
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n",
			name, key, sep, formatValue(b), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, key, sep, cum); err != nil {
		return err
	}
	suffix := ""
	if key != "" {
		suffix = "{" + key + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, suffix, formatValue(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, cum)
	return err
}
