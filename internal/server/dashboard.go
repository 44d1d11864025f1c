package server

import (
	"fmt"
	"html/template"
	"net/http"
	"strings"
	"time"

	"rdfanalytics/internal/obs"
	"rdfanalytics/internal/sparql"
)

// The built-in observability dashboard: one self-contained HTML page
// rendered server-side with html/template — inline CSS, inline SVG
// sparklines, no scripts, no external assets — so it works from a terminal
// browser on an air-gapped box. It shows the RED view of the workload
// (rate, errors, duration quantiles) with sparklines over the sampler's
// retained history, heap/GC trends, SLO error-budget gauges, the alert
// timeline, the top-k slowest query fingerprints with their worst-case
// run, the plan-vs-actual misestimation table fed by the operator
// profiler, and the most recent queries. The page meta-refreshes and is
// served with Cache-Control: no-store, so a browser left open stays live.

// dashboardTopK is how many slow fingerprints and misestimates the page
// shows; the full data is always available from GET /api/workload.
const dashboardTopK = 10

// dashboardSparkN is how many sampler ticks a sparkline spans (fine
// resolution: 60 ticks at the default 10s interval ≈ 10 minutes).
const dashboardSparkN = 60

type dashboardData struct {
	Now          time.Time
	Triples      int
	Terms        int
	Sessions     int
	Snap         obs.WorkloadSnapshot
	ErrorPct     float64
	TopSlow      []obs.FingerprintSummary
	Misestimates []obs.OpEstimate
	Recent       []obs.QueryRecord
	// Feedback is the planner feedback store's counters; FeedbackPct is the
	// hit rate hits/(hits+misses) in percent (0 when nothing was looked up).
	Feedback    sparql.FeedbackStats
	FeedbackPct float64
	// Sparkline series from the telemetry sampler, oldest first: request
	// throughput, 5xx rate, windowed p95 latency (ms), heap in use (MiB)
	// and GC cycle rate.
	ReqRate []float64
	ErrRate []float64
	P95Ms   []float64
	HeapMiB []float64
	GCRate  []float64
	// SLOs and Alerts are the burn-rate evaluator's last state.
	SLOs   []obs.ObjectiveStatus
	Alerts obs.AlertsSnapshot
	// Resilience is the overload-protection card row: answer-cache
	// occupancy and outcome counters, admission gate state, and the
	// degraded-mode flag (see resilience.go).
	Resilience resilienceCard
	// TraceStats/Traces are the tail-sampling retention store's accounting
	// and the newest retained traces; fingerprints throughout the page link
	// into /api/traces so an SLO burn or slow shape drills down to concrete
	// span waterfalls without any scripting.
	TraceStats obs.TraceStoreStats
	Traces     []obs.TraceSummary
}

// resilienceCard is the dashboard's view of the resilience layer.
type resilienceCard struct {
	CacheEnabled bool
	Entries      int
	KiB          int64
	Hits         uint64
	Stale        uint64
	Misses       uint64
	Collapsed    uint64
	Evictions    uint64
	HitPct       float64
	Shed         uint64 // admission rejections, all reasons
	BreakerOpens uint64
	Inflight     int
	Waiting      int
	Degraded     bool
}

// resilienceSnapshot assembles the dashboard card from the live layer.
func (s *Server) resilienceSnapshot() resilienceCard {
	c := resilienceCard{
		CacheEnabled: s.answers.Enabled(),
		Entries:      s.answers.Entries(),
		KiB:          s.answers.Bytes() >> 10,
		Hits:         cacheHit.Value(),
		Stale:        cacheStale.Value(),
		Misses:       cacheMiss.Value(),
		Collapsed:    cacheCollapsed.Value(),
		Evictions:    s.answers.Evictions(),
		BreakerOpens: breakerTransition("open").Value(),
		Inflight:     s.gate.Inflight(),
		Waiting:      s.gate.Waiting(),
		Degraded:     s.Degraded(),
	}
	c.Shed = breakerRejected.Value()
	for _, reason := range []string{"queue_full", "shape_limit", "deadline", "degraded"} {
		c.Shed += admissionRejected(reason).Value()
	}
	if served := c.Hits + c.Stale + c.Collapsed + c.Misses; served > 0 {
		c.HitPct = 100 * float64(c.Hits+c.Stale+c.Collapsed) / float64(served)
	}
	return c
}

func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	snap := s.workload.Snapshot()
	data := dashboardData{
		Now:          time.Now().UTC(),
		Snap:         snap,
		TopSlow:      s.workload.TopSlow(dashboardTopK),
		Misestimates: snap.Misestimates,
		Recent:       snap.Recent,
		Feedback:     s.feedback.Stats(),
		SLOs:         s.slos.Statuses(),
		Alerts:       s.alerts.Snapshot(),
		Resilience:   s.resilienceSnapshot(),
		TraceStats:   s.traces.Stats(),
		Traces:       s.traces.Search(obs.TraceQuery{Limit: dashboardTopK}),
	}
	db := s.sampler.DB()
	data.ReqRate = db.RateSeries("rdfa_http_requests_total{", dashboardSparkN)
	data.ErrRate = db.RateSeriesMatch(func(key string) bool {
		return strings.HasPrefix(key, "rdfa_http_requests_total{") &&
			strings.Contains(key, `status="5`)
	}, dashboardSparkN)
	data.P95Ms = scaleSeries(
		db.QuantileSeries("rdfa_http_request_seconds", 0.95, 5*time.Minute, dashboardSparkN), 1000)
	data.HeapMiB = scaleSeries(db.GaugeSeries("rdfa_go_heap_alloc_bytes", dashboardSparkN), 1.0/(1<<20))
	data.GCRate = db.RateSeries("rdfa_go_gc_cycles_total", dashboardSparkN)
	if n := data.Feedback.Hits + data.Feedback.Misses; n > 0 {
		data.FeedbackPct = 100 * float64(data.Feedback.Hits) / float64(n)
	}
	if len(data.Misestimates) > dashboardTopK {
		data.Misestimates = data.Misestimates[:dashboardTopK]
	}
	if len(data.Recent) > dashboardTopK {
		data.Recent = data.Recent[:dashboardTopK]
	}
	if snap.Total > 0 {
		data.ErrorPct = 100 * float64(snap.Errors) / float64(snap.Total)
	}
	s.mu.Lock()
	st := s.graph.Stats()
	data.Sessions = len(s.sessions)
	s.mu.Unlock()
	data.Triples, data.Terms = st.Triples, st.Terms
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	if err := dashboardTmpl.Execute(w, data); err != nil {
		httpError(w, http.StatusInternalServerError, err)
	}
}

// scaleSeries multiplies every value by f (unit conversion for display).
func scaleSeries(vals []float64, f float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = v * f
	}
	return out
}

// sparklineSVG renders vals as an inline SVG polyline, oldest to newest.
// The output contains only printf-formatted numbers, so returning
// template.HTML is safe; an empty or single-point series renders an empty
// frame rather than nothing, keeping table layout stable.
func sparklineSVG(vals []float64, w, h int) template.HTML {
	var b strings.Builder
	fmt.Fprintf(&b, `<svg width="%d" height="%d" viewBox="0 0 %d %d" role="img">`, w, h, w, h)
	if len(vals) > 1 {
		min, max := vals[0], vals[0]
		for _, v := range vals[1:] {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		span := max - min
		if span <= 0 {
			span = 1
		}
		const pad = 2.0
		pts := make([]string, len(vals))
		for i, v := range vals {
			x := pad + float64(i)*(float64(w)-2*pad)/float64(len(vals)-1)
			y := float64(h) - pad - (v-min)/span*(float64(h)-2*pad)
			pts[i] = fmt.Sprintf("%.1f,%.1f", x, y)
		}
		fmt.Fprintf(&b, `<polyline fill="none" stroke="#36c" stroke-width="1.5" points="%s"/>`,
			strings.Join(pts, " "))
	}
	b.WriteString(`</svg>`)
	return template.HTML(b.String())
}

// gaugeSVG renders an error-budget gauge: a bar whose filled fraction is
// the remaining budget, clamped to [0, 1]; overspent budgets show an empty
// red frame. Safe as template.HTML for the same reason as sparklineSVG.
func gaugeSVG(frac float64, w, h int) template.HTML {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	color := "#2a2"
	switch {
	case frac < 0.25:
		color = "#a00"
	case frac < 0.5:
		color = "#c80"
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg width="%d" height="%d" viewBox="0 0 %d %d" role="img">`, w, h, w, h)
	fmt.Fprintf(&b, `<rect x="0.5" y="0.5" width="%d" height="%d" fill="none" stroke="#999"/>`, w-1, h-1)
	fmt.Fprintf(&b, `<rect x="1" y="1" width="%.1f" height="%d" fill="%s"/>`,
		frac*float64(w-2), h-2, color)
	b.WriteString(`</svg>`)
	return template.HTML(b.String())
}

var dashboardTmpl = template.Must(template.New("dashboard").Funcs(template.FuncMap{
	"ms": func(v float64) string { return fmt.Sprintf("%.2f", v) },
	"qe": func(v float64) string {
		if v == 0 {
			return "–"
		}
		return fmt.Sprintf("%.1f", v)
	},
	"durms": func(d time.Duration) string {
		return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
	},
	"add":   func(a, b uint64) uint64 { return a + b },
	"spark": func(vals []float64) template.HTML { return sparklineSVG(vals, 220, 36) },
	"gauge": func(frac float64) template.HTML { return gaugeSVG(frac, 120, 12) },
	"last": func(vals []float64) string {
		if len(vals) == 0 {
			return "–"
		}
		return fmt.Sprintf("%.2f", vals[len(vals)-1])
	},
	"burn": func(m map[string]float64, k string) string {
		return fmt.Sprintf("%.2f", m[k])
	},
	"pct": func(v float64) string { return fmt.Sprintf("%.1f", 100*v) },
	// shapeFP extracts the fingerprint from a per-shape objective name
	// ("shape:<fp>"), or "" for process-wide objectives — the hook that
	// turns SLO and alert rows into /api/traces drill-down links.
	"shapeFP": func(name string) string {
		if fp, ok := strings.CutPrefix(name, "shape:"); ok {
			return fp
		}
		return ""
	},
	"trunc": func(s string) string { return obs.TruncateText(s, 96) },
}).Parse(dashboardHTML))

const dashboardHTML = `<!doctype html>
<html><head><meta charset="utf-8"><title>RDF-Analytics dashboard</title>
<meta http-equiv="refresh" content="10">
<style>
body { font-family: ui-monospace, monospace; max-width: 72rem; margin: 1.5rem auto; padding: 0 1rem; color: #222; }
h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.6rem; }
table { border-collapse: collapse; width: 100%; font-size: 0.85rem; }
th, td { border: 1px solid #ccc; padding: 0.25rem 0.5rem; text-align: left; vertical-align: top; }
th { background: #f2f2f2; }
td.num, th.num { text-align: right; }
.cards { display: flex; flex-wrap: wrap; gap: 0.8rem; }
.card { border: 1px solid #ccc; padding: 0.5rem 0.9rem; min-width: 8rem; }
.card b { display: block; font-size: 1.2rem; }
.bad { color: #a00; }
.warn { color: #c80; }
code { background: #f6f6f6; padding: 0 0.2rem; }
svg { vertical-align: middle; }
footer { margin-top: 2rem; font-size: 0.75rem; color: #666; }
</style></head><body>
<h1>RDF-Analytics dashboard</h1>
<p>Generated {{.Now.Format "2006-01-02 15:04:05"}} UTC · graph: {{.Triples}} triples, {{.Terms}} terms · {{.Sessions}} active sessions</p>

<h2>Workload (RED)</h2>
<div class="cards">
<div class="card"><b>{{.Snap.Total}}</b>queries</div>
<div class="card"><b{{if gt .Snap.Errors 0}} class="bad"{{end}}>{{.Snap.Errors}}</b>errors ({{ms .ErrorPct}}%)</div>
<div class="card"><b>{{ms .Snap.P50Ms}} ms</b>p50 latency</div>
<div class="card"><b>{{ms .Snap.P95Ms}} ms</b>p95 latency</div>
<div class="card"><b>{{ms .FeedbackPct}}%</b>feedback hit rate ({{.Feedback.Hits}}/{{add .Feedback.Hits .Feedback.Misses}}, {{.Feedback.Fingerprints}} shapes)</div>
</div>

<h2>Overload resilience</h2>
{{with .Resilience}}<div class="cards">
{{if .CacheEnabled}}<div class="card"><b>{{ms .HitPct}}%</b>answer-cache served ({{.Hits}} hit / {{.Stale}} stale / {{.Collapsed}} collapsed / {{.Misses}} miss)</div>
<div class="card"><b>{{.Entries}}</b>cache entries ({{.KiB}} KiB, {{.Evictions}} evicted)</div>
{{else}}<div class="card"><b>off</b>answer cache (-cache-size 0)</div>{{end}}
<div class="card"><b{{if gt .Shed 0}} class="warn"{{end}}>{{.Shed}}</b>requests shed (503)</div>
<div class="card"><b>{{.Inflight}} / {{.Waiting}}</b>executing / queued</div>
<div class="card"><b{{if gt .BreakerOpens 0}} class="warn"{{end}}>{{.BreakerOpens}}</b>breaker opens</div>
<div class="card"><b{{if .Degraded}} class="bad"{{end}}>{{if .Degraded}}degraded{{else}}normal{{end}}</b>serving mode</div>
</div>{{end}}

<h2>Trends (sampler history, oldest → newest)</h2>
<table>
<tr><th>series</th><th>sparkline</th><th class="num">latest</th></tr>
<tr><td>HTTP throughput</td><td>{{spark .ReqRate}}</td><td class="num">{{last .ReqRate}} req/s</td></tr>
<tr><td>HTTP 5xx rate</td><td>{{spark .ErrRate}}</td><td class="num">{{last .ErrRate}} err/s</td></tr>
<tr><td>HTTP p95 (5m window)</td><td>{{spark .P95Ms}}</td><td class="num">{{last .P95Ms}} ms</td></tr>
<tr><td>Heap in use</td><td>{{spark .HeapMiB}}</td><td class="num">{{last .HeapMiB}} MiB</td></tr>
<tr><td>GC cycles</td><td>{{spark .GCRate}}</td><td class="num">{{last .GCRate}} /s</td></tr>
</table>

<h2>SLO error budgets</h2>
{{if .SLOs}}<table>
<tr><th>objective</th><th>kind</th><th class="num">target %</th><th class="num">events</th><th class="num">good</th><th class="num">burn 5m</th><th class="num">burn 1h</th><th>budget left</th><th>severity</th></tr>
{{range .SLOs}}<tr>
<td>{{with shapeFP .Name}}<a href="/api/traces?fingerprint={{.}}"><code>shape:{{.}}</code></a>{{else}}<code>{{.Name}}</code>{{end}}</td><td>{{.Kind}}{{if .ThresholdMs}} ≤ {{ms .ThresholdMs}} ms{{end}}</td>
<td class="num">{{pct .Target}}</td><td class="num">{{.Events}}</td><td class="num">{{.Good}}</td>
<td class="num">{{burn .Burn "fast_short"}}</td><td class="num">{{burn .Burn "fast_long"}}</td>
<td>{{gauge .BudgetRemaining}} {{pct .BudgetRemaining}}%</td>
<td{{if eq .Severity "page"}} class="bad"{{else if eq .Severity "warn"}} class="warn"{{end}}>{{if .Severity}}{{.Severity}}{{else}}ok{{end}}</td>
</tr>{{end}}
</table>{{else}}<p>No objectives configured (set -slo-availability / -slo-latency).</p>{{end}}

<h2>Alerts</h2>
{{if or .Alerts.Active .Alerts.Recent}}
{{if .Alerts.Active}}<table>
<tr><th>objective</th><th>severity</th><th>since</th><th class="num">burn fast</th><th class="num">burn slow</th><th>message</th></tr>
{{range .Alerts.Active}}<tr>
<td>{{with shapeFP .Objective}}<a href="/api/traces?fingerprint={{.}}"><code>shape:{{.}}</code></a>{{else}}<code>{{.Objective}}</code>{{end}}</td><td{{if eq .Severity "page"}} class="bad"{{else}} class="warn"{{end}}>{{.Severity}}</td>
<td>{{.Since.Format "15:04:05"}}</td><td class="num">{{ms .BurnFast}}</td><td class="num">{{ms .BurnSlow}}</td><td>{{.Message}}</td>
</tr>{{end}}
</table>{{else}}<p>No alert firing.</p>{{end}}
{{if .Alerts.Recent}}<h2>Alert timeline (newest first)</h2><table>
<tr><th>when</th><th>objective</th><th>severity</th><th>state</th><th>message</th></tr>
{{range .Alerts.Recent}}<tr>
<td>{{.At.Format "15:04:05"}}</td><td><code>{{.Objective}}</code></td>
<td{{if eq .Severity "page"}} class="bad"{{else}} class="warn"{{end}}>{{.Severity}}</td>
<td>{{.State}}</td><td>{{.Message}}</td>
</tr>{{end}}
</table>{{end}}
{{else}}<p>No alert has fired yet.</p>{{end}}

<h2>Slowest query fingerprints (top {{len .TopSlow}} by p95)</h2>
{{if .TopSlow}}<table>
<tr><th>fingerprint</th><th>kind</th><th>shape</th><th class="num">count</th><th class="num">p50 ms</th><th class="num">p95 ms</th><th class="num">worst ms</th><th class="num">avg rows</th><th class="num">max q-err</th><th>outcomes</th></tr>
{{range .TopSlow}}<tr>
<td><a href="/api/traces?fingerprint={{.ID}}"><code>{{.ID}}</code></a></td><td>{{.Kind}}</td><td><code>{{.Shape}}</code></td>
<td class="num">{{.Count}}</td><td class="num">{{ms .P50Ms}}</td><td class="num">{{ms .P95Ms}}</td>
<td class="num">{{ms .WorstMs}}</td><td class="num">{{ms .AvgRows}}</td><td class="num">{{qe .MaxQError}}</td>
<td>{{range $k, $v := .Outcomes}}{{$k}}={{$v}} {{end}}</td>
</tr>{{end}}
</table>{{else}}<p>No queries recorded yet.</p>{{end}}

<h2>Plan vs. actual (worst misestimated operator sites)</h2>
{{if .Misestimates}}<table>
<tr><th>operator</th><th>site</th><th class="num">est</th><th class="num">actual</th><th class="num">q-error</th><th class="num">seen</th><th>est. source</th></tr>
{{range .Misestimates}}<tr>
<td>{{.Op}}</td><td><code>{{.Label}}</code></td>
<td class="num">{{.Est}}</td><td class="num">{{.Actual}}</td><td class="num">{{qe .QError}}</td><td class="num">{{.Count}}</td>
<td>{{if .Feedback}}feedback{{else}}pattern count{{end}}</td>
</tr>{{end}}
</table>
<p>q-error = max(est/actual, actual/est); estimates come from the graph’s own pattern counts (two searches in a sorted permutation), or from the execution-feedback store once a fingerprint has run before (marked “feedback”).</p>
{{else}}<p>No profiled operators yet.</p>{{end}}

<h2>Recent queries</h2>
{{if .Recent}}<table>
<tr><th>when</th><th>kind</th><th>fingerprint</th><th class="num">ms</th><th class="num">rows</th><th>outcome</th><th>query</th></tr>
{{range .Recent}}<tr>
<td>{{.When.Format "15:04:05"}}</td><td>{{.Kind}}</td><td><code>{{.FingerprintID}}</code></td>
<td class="num">{{durms .Duration}}</td><td class="num">{{.Rows}}</td>
<td{{if ne .Outcome "ok"}} class="bad"{{end}}>{{.Outcome}}</td><td><code>{{.Query}}</code></td>
</tr>{{end}}
</table>{{else}}<p>No queries recorded yet.</p>{{end}}

<h2>Retained traces (tail-sampled, newest first)</h2>
<div class="cards">
<div class="card"><b>{{.TraceStats.Retained}}</b>retained{{if .TraceStats.ByReason}} ({{range $k, $v := .TraceStats.ByReason}}{{$k}}={{$v}} {{end}}){{end}}</div>
<div class="card"><b>{{.TraceStats.Bytes}}</b>bytes held</div>
<div class="card"><b>{{.TraceStats.DroppedSampled}}</b>sampled out</div>
<div class="card"><b{{if gt .TraceStats.DroppedEvicted 0}} class="warn"{{end}}>{{.TraceStats.DroppedEvicted}}</b>evicted</div>
</div>
{{if .Traces}}<table>
<tr><th>trace</th><th>kind</th><th>fingerprint</th><th>reason</th><th class="num">ms</th><th>outcome</th><th>cache</th><th>query</th></tr>
{{range .Traces}}<tr>
<td><a href="/api/traces/{{.ID}}"><code>{{.ID}}</code></a></td><td>{{.Kind}}</td>
<td>{{if .FingerprintID}}<a href="/api/traces?fingerprint={{.FingerprintID}}"><code>{{.FingerprintID}}</code></a>{{end}}</td>
<td>{{.Reason}}</td><td class="num">{{ms .DurationMS}}</td>
<td{{if ne .Outcome "ok"}} class="bad"{{end}}>{{.Outcome}}</td><td>{{.Cache}}</td><td><code>{{trunc .Query}}</code></td>
</tr>{{end}}
</table>
<p>Errors, timeouts and budget aborts are retained at 100%; the rest are each fingerprint's slowest runs, p95 outliers, and a residual sample. Search: <a href="/api/traces">/api/traces</a>.</p>
{{else}}<p>No trace retained yet.</p>{{end}}

<footer>Raw data: <a href="/api/workload">/api/workload</a> · <a href="/api/timeseries">/api/timeseries</a> · <a href="/api/alerts">/api/alerts</a> · <a href="/api/traces">/api/traces</a> · <a href="/api/trace">/api/trace</a> · <a href="/metrics">/metrics</a></footer>
</body></html>
`
