// Request IDs and the Kubernetes-style /healthz and /readyz probes, wired
// to the server's drain state.
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

// The middleware's header keys, spelled canonically: Header.Get and Set
// canonicalize any other spelling into a fresh string on every call. The
// wire carries the canonical spelling either way.
const (
	headerRequestID = "X-Request-Id"
	headerTraceID   = "X-Trace-Id"
)

// newRequestID mints a 16-hex-char random id, encoded on the stack: the
// string is its one allocation.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	var buf [16]byte
	hex.Encode(buf[:], b[:])
	return string(buf[:])
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

// opRecord starts the record of one operation of kind that r asked for:
// the IDs the middleware gave the request.
func opRecord(r *http.Request, kind string) obs.QueryRecord {
	ids := obs.RequestIDsFrom(r.Context())
	return obs.QueryRecord{Kind: kind, RequestID: ids.Request, TraceID: ids.Trace}
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

// handleProbe answers both probes, liveness (/healthz) and readiness
// (/readyz): 200 while the process serves, 503 once draining (tells the
// balancer to stop routing here; in-flight requests still complete under
// the shutdown grace). Nothing else takes an instance out of rotation: an
// objective burning its budget, read off /metrics by the operator's
// scraper, is for the operator's alerting to act on.
func (s *Server) handleProbe(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		setHeader(w, "Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		writeJSONBody(w, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, map[string]string{"status": "ok"})
}
