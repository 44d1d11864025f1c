package server

import (
	"fmt"
	"html/template"
	"net/http"
	"time"

	"rdfanalytics/internal/obs"
)

// The built-in observability dashboard: one self-contained HTML page
// rendered server-side with html/template — inline CSS, no scripts, no
// external assets — so it works from a terminal browser on an air-gapped
// box. It shows the RED view of the workload (rate, errors, duration
// quantiles), the overload-resilience card, the top-k slowest query
// fingerprints with their worst-case run, the plan-vs-actual misestimation
// table fed by the operator profiler, the most recent queries and the
// newest retained traces. Trends over time are /metrics' business, for a
// scraper that keeps history. The page meta-refreshes and is served with
// Cache-Control: no-store, so a browser left open stays live.

// dashboardTopK is how many slow fingerprints and misestimates the page
// shows; the full data is always available from GET /api/workload.
const dashboardTopK = 10

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
	// Resilience is the overload-protection card row: answer-cache
	// occupancy and outcome counters, admission gate state, and the drain
	// flag (see resilience.go).
	Resilience resilienceCard
	// TraceStats/Traces are the operations log's retention accounting and
	// the newest retained traces; fingerprints throughout the page link
	// into /api/traces so a slow shape drills down to concrete span
	// waterfalls without any scripting.
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
	Inflight     int
	Waiting      int
	Draining     bool
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
		Inflight:     s.gate.Inflight(),
		Waiting:      s.gate.Waiting(),
		Draining:     s.draining.Load(),
	}
	for _, reason := range shedReasons {
		c.Shed += admissionRejected(reason).Value()
	}
	if served := c.Hits + c.Stale + c.Collapsed + c.Misses; served > 0 {
		c.HitPct = 100 * float64(c.Hits+c.Stale+c.Collapsed) / float64(served)
	}
	return c
}

func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	snap := s.oplog.Snapshot()
	data := dashboardData{
		Now:          time.Now().UTC(),
		Snap:         snap,
		TopSlow:      snap.TopSlow(dashboardTopK),
		Misestimates: snap.Misestimates,
		Recent:       snap.Recent,
		Resilience:   s.resilienceSnapshot(),
		TraceStats:   s.oplog.TraceStats(),
		Traces:       s.oplog.Search(obs.TraceQuery{Limit: dashboardTopK}),
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
	st := s.graph.Stats()
	data.Sessions = int(s.active.Load())
	data.Triples, data.Terms = st.Triples, st.Terms
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	if err := dashboardTmpl.Execute(w, data); err != nil {
		httpError(w, http.StatusInternalServerError, err)
	}
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
</div>

<h2>Overload resilience</h2>
{{with .Resilience}}<div class="cards">
{{if .CacheEnabled}}<div class="card"><b>{{ms .HitPct}}%</b>answer-cache served ({{.Hits}} hit / {{.Stale}} stale / {{.Collapsed}} collapsed / {{.Misses}} miss)</div>
<div class="card"><b>{{.Entries}}</b>cache entries ({{.KiB}} KiB, {{.Evictions}} evicted)</div>
{{else}}<div class="card"><b>off</b>answer cache (-cache-size 0)</div>{{end}}
<div class="card"><b{{if gt .Shed 0}} class="warn"{{end}}>{{.Shed}}</b>requests shed (503)</div>
<div class="card"><b>{{.Inflight}} / {{.Waiting}}</b>executing / queued</div>
<div class="card"><b{{if .Draining}} class="bad"{{end}}>{{if .Draining}}draining{{else}}normal{{end}}</b>serving mode</div>
</div>{{end}}

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
<tr><th>operator</th><th>site</th><th class="num">est</th><th class="num">actual</th><th class="num">q-error</th><th class="num">seen</th></tr>
{{range .Misestimates}}<tr>
<td>{{.Op}}</td><td><code>{{.Label}}</code></td>
<td class="num">{{.Est}}</td><td class="num">{{.Actual}}</td><td class="num">{{qe .QError}}</td><td class="num">{{.Count}}</td>
</tr>{{end}}
</table>
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

<footer>Raw data: <a href="/api/workload">/api/workload</a> · <a href="/api/traces">/api/traces</a> · <a href="/metrics">/metrics</a></footer>
</body></html>
`
