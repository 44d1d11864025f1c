// Resource governance for the HTTP layer: per-query deadlines, request
// body caps, panic recovery, idle-session expiry, and graceful shutdown.
// Together with the cooperative cancellation inside internal/sparql these
// make the server safe to expose: a pathological query times out with a
// structured error instead of wedging the process, a panicking handler
// answers 500 instead of killing the listener, and SIGTERM drains
// in-flight requests instead of dropping them.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime/debug"
	"time"

	"rdfanalytics/internal/obs"
	"rdfanalytics/internal/sparql"
)

// DefaultMaxBodyBytes caps POST request bodies when Config.MaxBodyBytes is
// zero: large enough for any realistic query or update, small enough that a
// hostile client cannot balloon memory.
const DefaultMaxBodyBytes = 10 << 20 // 10 MiB

// StatusClientClosedRequest is the nginx-convention status for requests
// whose client went away before the response was written (no stdlib const).
const StatusClientClosedRequest = 499

var (
	serverPanics    = obs.Default.Counter("rdfa_server_panics_total")
	sessionsExpired = obs.Default.Counter("rdfa_http_sessions_expired_total")
)

// queryCtx derives the evaluation context for a request: the request's own
// context (cancelled when the client disconnects, and carrying the
// middleware's IDs) bounded by the server's per-query wall-clock deadline,
// when one is configured. Its timer is the one an execution has: a
// collapsed execution runs under its leader's deadline (resilience.Group).
func (s *Server) queryCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.QueryTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
	}
	return r.Context(), func() {}
}

// abortStatus maps an evaluation error onto the response taxonomy:
// deadline expiry → 504, client disconnect → 499, resource budget → 422,
// oversized body → 413, anything else → the fallback.
func abortStatus(err error, fallback int) int {
	var mbe *http.MaxBytesError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	case errors.Is(err, sparql.ErrBudgetExceeded):
		return http.StatusUnprocessableEntity
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge
	default:
		return fallback
	}
}

// queryError writes an evaluation error with its taxonomy status and, for
// aborted queries, a machine-readable reason alongside the message.
func queryError(w http.ResponseWriter, err error) {
	code := abortStatus(err, http.StatusInternalServerError)
	if reason := sparql.AbortReason(err); reason != "" {
		body := map[string]string{"error": err.Error(), "reason": reason}
		if id := w.Header().Get(headerRequestID); id != "" {
			body["request_id"] = id
		}
		setHeader(w, "Content-Type", "application/json")
		w.WriteHeader(code)
		writeJSONBody(w, body)
		return
	}
	httpError(w, code, err)
}

// recoverPanic is the deferred half of the recovery middleware: a panicking
// handler is converted into a 500 (when nothing was written yet), counted,
// and logged with its stack. http.ErrAbortHandler is re-raised — it is the
// sanctioned way to abort a response and net/http handles it itself.
func recoverPanic(w *statusWriter, r *http.Request) {
	v := recover()
	if v == nil {
		return
	}
	if v == http.ErrAbortHandler {
		panic(v)
	}
	serverPanics.Inc()
	slog.Error("handler panic",
		"method", r.Method, "path", r.URL.Path,
		"panic", fmt.Sprint(v), "stack", string(debug.Stack()))
	if w.status == 0 {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("internal error"))
	}
}

// ---- idle-session expiry ----

// sweepExpired removes sessions idle since before cutoff, returning how
// many were expired. It walks the recency order from its cold end and stops
// at the first live session. Exposed separately from the background
// sweeper so tests can drive it deterministically.
func (s *Server) sweepExpired(cutoff time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for el := s.recency.Back(); el != nil && el.Value.(*sessEntry).lastAt.Before(cutoff); el = s.recency.Back() {
		s.dropSession(el.Value.(*sessEntry))
		sessionsExpired.Inc()
		n++
	}
	return n
}

// startSweeper launches the background goroutine that expires idle
// sessions every ttl/4 (clamped to [1s, 1min]). Stopped by Close.
func (s *Server) startSweeper(ttl time.Duration) {
	interval := ttl / 4
	if interval < time.Second {
		interval = time.Second
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	s.sweepStop = make(chan struct{})
	s.sweepDone = make(chan struct{})
	go func() {
		defer close(s.sweepDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.sweepStop:
				return
			case now := <-t.C:
				s.sweepExpired(now.Add(-ttl))
			}
		}
	}()
}

// Close stops the server's background work, the session sweeper. Safe to
// call when it is not running, and idempotent is not required — call once
// when tearing the server down.
func (s *Server) Close() {
	if s.sweepStop != nil {
		close(s.sweepStop)
		<-s.sweepDone
		s.sweepStop = nil
	}
}

// ---- graceful shutdown ----

// Run serves h on addr until ctx is cancelled, then drains in-flight
// requests for up to grace before returning. The error is nil on a clean
// drain, the listener error if serving failed, or the shutdown error when
// the grace period expired with requests still running.
func Run(ctx context.Context, addr string, h http.Handler, grace time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return RunListener(ctx, ln, h, grace)
}

// RunListener is Run over an existing listener (tests use a :0 listener to
// get a free port). The listener is owned by the server once passed in.
// When h exposes a drain flag (our *Server does), it flips before Shutdown
// so /healthz and /readyz fail the balancer's probes while in-flight
// requests finish under the grace period.
func RunListener(ctx context.Context, ln net.Listener, h http.Handler, grace time.Duration) error {
	srv := &http.Server{Handler: h}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	if d, ok := h.(interface{ SetDraining(bool) }); ok {
		d.SetDraining(true)
	}
	shCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	return srv.Shutdown(shCtx)
}
