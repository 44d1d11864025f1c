package obs

import (
	"strings"
	"testing"
)

func TestTraceIDFormatAndContext(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace id %q: want 16 hex chars", id)
		}
		for _, c := range id {
			if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
				t.Fatalf("trace id %q contains non-hex %q", id, c)
			}
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
}

func TestTraceCarriesID(t *testing.T) {
	tr := NewTrace("q")
	if tr.ID() == "" {
		t.Fatal("NewTrace minted no id")
	}
	tr.SetID("override00000001")
	if got := tr.ID(); got != "override00000001" {
		t.Fatalf("SetID: got %q", got)
	}
	tr.SetID("") // ignored
	if tr.ID() != "override00000001" {
		t.Fatal("empty SetID overwrote the id")
	}
	tr.Finish()
	if exp := tr.Export(); exp.TraceID != "override00000001" {
		t.Fatalf("export trace_id = %q", exp.TraceID)
	}
	var nilTr *Trace
	if nilTr.ID() != "" {
		t.Fatal("nil trace has an id")
	}
	nilTr.SetID("x") // must not panic
}

func TestWriteOpenMetricsExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("om_test_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.ObserveExemplar(0.4, "1111111111111111")
	h.ObserveExemplar(0.5, "abcdef0123456789") // same bucket: last writer wins
	c := r.Counter("om_requests_total")
	c.Inc()

	var om strings.Builder
	if err := r.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	out := om.String()
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("missing # EOF terminator:\n%s", out)
	}
	// Counter metadata drops _total; the sample line keeps it.
	if !strings.Contains(out, "# TYPE om_requests counter") {
		t.Fatalf("counter TYPE keeps _total:\n%s", out)
	}
	if !strings.Contains(out, "om_requests_total 1") {
		t.Fatalf("counter sample lost _total:\n%s", out)
	}
	// The 0.5 observation lands in the le="1" bucket and carries the
	// exemplar; the le="0.1" bucket has none.
	if !strings.Contains(out, `om_test_seconds_bucket{le="1"} 3 # {trace_id="abcdef0123456789"} 0.5 `) {
		t.Fatalf("exemplar missing from le=1 bucket:\n%s", out)
	}
	if strings.Contains(out, "1111111111111111") {
		t.Fatalf("overwritten exemplar still rendered:\n%s", out)
	}
	if strings.Contains(out, `le="0.1"} 1 #`) {
		t.Fatalf("exemplar on wrong bucket:\n%s", out)
	}

	// The default Prometheus 0.0.4 rendering must never carry exemplars.
	var prom strings.Builder
	r.WritePrometheus(&prom)
	if strings.Contains(prom.String(), "# {") {
		t.Fatalf("exemplar leaked into 0.0.4 exposition:\n%s", prom.String())
	}
}

func TestAcceptsOpenMetrics(t *testing.T) {
	if AcceptsOpenMetrics("text/plain") {
		t.Fatal("plain accept negotiated OpenMetrics")
	}
	if !AcceptsOpenMetrics("application/openmetrics-text; version=1.0.0") {
		t.Fatal("OpenMetrics accept not recognized")
	}
}
