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
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()
	for _, f := range fams {
		if err := f.writeOpen(w); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

// openMetadataName is the family name for # TYPE/# HELP lines: OpenMetrics
// counters are named without the _total suffix, which reappears on their
// sample lines.
func (f *family) openMetadataName() string {
	if f.kind == kindCounter || f.kind == kindCounterFunc {
		return strings.TrimSuffix(f.name, "_total")
	}
	return f.name
}

func (f *family) writeOpen(w io.Writer) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	meta := f.openMetadataName()
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", meta, f.help); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", meta, f.kind); err != nil {
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
			if err := m.writeOpen(w, f.name, key); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeOpen renders one histogram series with exemplars:
//
//	name_bucket{le="0.5"} 17 # {trace_id="ab12..."} 0.31 1754650000.123
func (h *Histogram) writeOpen(w io.Writer, name, key string) error {
	sep := ""
	if key != "" {
		sep = ","
	}
	cum := uint64(0)
	for i := 0; i <= len(h.bounds); i++ {
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatValue(h.bounds[i])
		}
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d%s\n",
			name, key, sep, le, cum, h.exemplarSuffix(i)); err != nil {
			return err
		}
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

func (h *Histogram) exemplarSuffix(bucket int) string {
	ex := h.exemplars[bucket].Load()
	if ex == nil {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=\"%s\"} %s %d.%03d",
		escapeLabel(ex.traceID), formatValue(ex.value), ex.whenMS/1000, ex.whenMS%1000)
}
