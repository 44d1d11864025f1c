package obs

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// OpenMetrics 1.0 exposition with exemplars. The default /metrics output
// stays the Prometheus 0.0.4 text format (WritePrometheus) for existing
// scrapers and tests; scrapers that negotiate
// `Accept: application/openmetrics-text` get this rendering, which is the
// only text format that can carry exemplars — the trace IDs that link a
// latency bucket back to a trace the operations log retained (OpLog).

// OpenMetricsContentType is the content type of WriteOpenMetrics output.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// AcceptsOpenMetrics reports whether an Accept header asks for the
// OpenMetrics exposition.
func AcceptsOpenMetrics(accept string) bool {
	return strings.Contains(accept, "application/openmetrics-text")
}

func nowUnixMilli() int64 { return time.Now().UnixMilli() }

// WriteOpenMetrics renders the registry in the OpenMetrics 1.0 text
// format: counter metadata drops the _total suffix (samples keep it),
// histogram bucket lines carry exemplars where one was recorded, and the
// exposition ends with the mandatory # EOF terminator.
func (r *Registry) WriteOpenMetrics(w io.Writer) error { return r.write(w, true) }

func (h *Histogram) exemplarSuffix(bucket int) string {
	ex := h.exemplars[bucket].Load()
	if ex == nil {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=\"%s\"} %s %d.%03d",
		escapeLabel(ex.traceID), formatValue(ex.value), ex.whenMS/1000, ex.whenMS%1000)
}
