package obs

import (
	"strings"
	"testing"
)

// goldenRegistry holds every metric kind: counters and gauges with and
// without labels, help text, a labelled histogram with an exemplar, an
// unlabelled one, and a counter and gauge computed at exposition time.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("golden_requests_total").Add(3)
	r.Help("golden_requests_total", "Requests served.")
	r.Counter("golden_errors_total", "code", "500").Inc()
	r.Counter("golden_errors_total", "code", "404").Add(2)
	r.Gauge("golden_inflight").Set(2.5)
	r.Gauge("golden_queue", "pool", "a\"b").Set(4)
	h := r.Histogram("golden_latency_seconds", []float64{0.1, 1}, "route", "/sparql")
	r.Help("golden_latency_seconds", "Request latency.")
	h.Observe(0.05)
	h.ObserveExemplar(0.5, "abcdef0123456789")
	h.exemplars[1].Store(&exemplar{traceID: "abcdef0123456789", value: 0.5, whenMS: 1754650000123})
	r.Histogram("golden_size_bytes", []float64{10}).Observe(50)
	r.CounterFunc("golden_hits_total", func() float64 { return 7 })
	r.GaugeFunc("golden_sessions", func() float64 { return 1.25 })
	return r
}

// TestExpositionMatchesRecorded renders goldenRegistry in both formats and
// compares the bytes with the output recorded before the two writers became
// one.
func TestExpositionMatchesRecorded(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(*Registry, *strings.Builder) error
		want  string
	}{
		{"prometheus", func(r *Registry, b *strings.Builder) error { return r.WritePrometheus(b) }, recordedPrometheus},
		{"openmetrics", func(r *Registry, b *strings.Builder) error { return r.WriteOpenMetrics(b) }, recordedOpenMetrics},
	} {
		var b strings.Builder
		if err := tc.write(goldenRegistry(), &b); err != nil {
			t.Fatal(err)
		}
		if b.String() != tc.want {
			t.Errorf("%s:\n%s\nwant\n%s", tc.name, b.String(), tc.want)
		}
	}
}

const recordedPrometheus = `# HELP golden_requests_total Requests served.
# TYPE golden_requests_total counter
golden_requests_total 3
# TYPE golden_errors_total counter
golden_errors_total{code="500"} 1
golden_errors_total{code="404"} 2
# TYPE golden_inflight gauge
golden_inflight 2.5
# TYPE golden_queue gauge
golden_queue{pool="a\"b"} 4
# HELP golden_latency_seconds Request latency.
# TYPE golden_latency_seconds histogram
golden_latency_seconds_bucket{route="/sparql",le="0.1"} 1
golden_latency_seconds_bucket{route="/sparql",le="1"} 2
golden_latency_seconds_bucket{route="/sparql",le="+Inf"} 2
golden_latency_seconds_sum{route="/sparql"} 0.55
golden_latency_seconds_count{route="/sparql"} 2
# TYPE golden_size_bytes histogram
golden_size_bytes_bucket{le="10"} 0
golden_size_bytes_bucket{le="+Inf"} 1
golden_size_bytes_sum 50
golden_size_bytes_count 1
# TYPE golden_hits_total counter
golden_hits_total 7
# TYPE golden_sessions gauge
golden_sessions 1.25
`

const recordedOpenMetrics = `# HELP golden_requests Requests served.
# TYPE golden_requests counter
golden_requests_total 3
# TYPE golden_errors counter
golden_errors_total{code="500"} 1
golden_errors_total{code="404"} 2
# TYPE golden_inflight gauge
golden_inflight 2.5
# TYPE golden_queue gauge
golden_queue{pool="a\"b"} 4
# HELP golden_latency_seconds Request latency.
# TYPE golden_latency_seconds histogram
golden_latency_seconds_bucket{route="/sparql",le="0.1"} 1
golden_latency_seconds_bucket{route="/sparql",le="1"} 2 # {trace_id="abcdef0123456789"} 0.5 1754650000.123
golden_latency_seconds_bucket{route="/sparql",le="+Inf"} 2
golden_latency_seconds_sum{route="/sparql"} 0.55
golden_latency_seconds_count{route="/sparql"} 2
# TYPE golden_size_bytes histogram
golden_size_bytes_bucket{le="10"} 0
golden_size_bytes_bucket{le="+Inf"} 1
golden_size_bytes_sum 50
golden_size_bytes_count 1
# TYPE golden_hits counter
golden_hits_total 7
# TYPE golden_sessions gauge
golden_sessions 1.25
# EOF
`
