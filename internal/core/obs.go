package core

import (
	"time"

	"rdfanalytics/internal/obs"
)

// Metric handles for the interaction layer, resolved once at package init.
var (
	runSeconds     = obs.Default.Histogram("rdfa_core_run_analytics_seconds", nil)
	reloadSeconds  = obs.Default.Histogram("rdfa_core_reload_seconds", nil)
	uiStateSeconds = obs.Default.Histogram("rdfa_core_uistate_seconds", nil)
)

// observeSince records a duration on h; evaluate time.Now() at the defer
// site so the deferred call measures the enclosing function.
func observeSince(h *obs.Histogram, start time.Time) {
	h.Observe(time.Since(start).Seconds())
}
