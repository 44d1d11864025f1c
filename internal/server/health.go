// Health and telemetry-history endpoints: Kubernetes-style /healthz and
// /readyz probes wired to the server's drain state and the SLO alert
// severity, GET /api/timeseries over the sampler's ring buffers, and
// GET /api/alerts over the burn-rate evaluator's alert log.
package server

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"

	"rdfanalytics/internal/obs"
)

// ---- request IDs ----

// maxRequestIDLen bounds client-supplied X-Request-ID values.
const maxRequestIDLen = 64

// newRequestID mints a 16-hex-char random id.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// validRequestID accepts ids that are safe to echo into headers and logs.
func validRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// requestID returns the id the middleware stamped on the request. The key
// is spelled canonically, so the read does not allocate.
func requestID(r *http.Request) string {
	return r.Header.Get("X-Request-Id")
}

// ---- health probes ----

// SetDraining flips the drain flag; RunListener sets it when graceful
// shutdown begins, so load balancers see /healthz and /readyz fail while
// in-flight requests finish.
func (s *Server) SetDraining(v bool) {
	s.draining.Store(v)
}

// Draining reports whether graceful shutdown has begun.
func (s *Server) Draining() bool {
	return s.draining.Load()
}

// handleHealthz is the liveness probe: 200 while the process serves, 503
// once draining (tells the balancer to stop routing here; in-flight
// requests still complete under the shutdown grace).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		writeJSONBody(w, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 503 while draining or while a
// page-severity SLO alert fires (the service is up but violating its
// latency/availability objectives hard enough to shed traffic); warn-level
// alerts degrade the body but keep the probe green.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		writeJSONBody(w, map[string]string{"status": "draining"})
		return
	}
	snap := s.alerts.Snapshot()
	switch s.alerts.MaxSeverity() {
	case obs.SeverityPage:
		w.WriteHeader(http.StatusServiceUnavailable)
		writeJSONBody(w, map[string]any{"status": "degraded", "alerts": snap.Active})
	case obs.SeverityWarn:
		writeJSONBody(w, map[string]any{"status": "warn", "alerts": snap.Active})
	default:
		writeJSONBody(w, map[string]string{"status": "ok"})
	}
}

// ---- telemetry history ----

// timeseriesJSON is the GET /api/timeseries payload: the ring-buffer
// export plus the exemplars currently attached to matching histogram
// buckets, so a latency spike in the history links to retained traces.
type timeseriesJSON struct {
	obs.TimeseriesJSON
	Exemplars []obs.ExemplarView `json:"exemplars,omitempty"`
}

// handleTimeseries serves the sampler's retained history:
// ?series=<substring> filters keys, ?res=coarse selects the roll-up ring.
// Counter series carry derived per-second rates next to the raw
// cumulative points.
func (s *Server) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	filter := r.URL.Query().Get("series")
	res := r.URL.Query().Get("res")
	writeJSON(w, timeseriesJSON{
		TimeseriesJSON: s.sampler.DB().Export(filter, res),
		Exemplars:      obs.Default.ExemplarsMatching(filter, 0),
	})
}

// alertsJSON is the GET /api/alerts payload: the alert log plus every
// objective's last evaluated burn-rate state.
type alertsJSON struct {
	obs.AlertsSnapshot
	SLOs []obs.ObjectiveStatus `json:"slos"`
}

// handleAlerts serves active alerts, the firing/resolved timeline and the
// SLO objective statuses.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, alertsJSON{
		AlertsSnapshot: s.alerts.Snapshot(),
		SLOs:           s.slos.Statuses(),
	})
}
