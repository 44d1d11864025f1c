package obs

import (
	"sync"
	"time"
)

// SLO counters.
//
// Every objective reduces to a pair of cumulative event counters — good
// events and total events — registered as ordinary metrics
// (rdfa_slo_good_total / rdfa_slo_events_total, labelled by objective). An
// availability objective counts a non-5xx response as good; a latency
// objective counts a response faster than its threshold as good (errors are
// slow by definition: they consumed the user's patience without an answer).
//
// Burn rates and alerts are the scraper's job, not the process's: over a
// window W, an external Prometheus evaluates
//
//	(1 - increase(rdfa_slo_good_total[W]) / increase(rdfa_slo_events_total[W])) / (1 - target)
//
// per objective, and pages on it. Nothing on the request path reads it.

// SLOKind distinguishes objective semantics.
type SLOKind int

// The objective kinds.
const (
	// SLOAvailability targets a good-response ratio.
	SLOAvailability SLOKind = iota
	// SLOLatency targets a fraction of events faster than a threshold.
	SLOLatency
)

// Objective is one declarative service-level objective.
type Objective struct {
	Name      string
	Kind      SLOKind
	Target    float64       // e.g. 0.999
	Threshold time.Duration // latency objectives only

	good  *Counter
	total *Counter
}

// Record folds one availability event into the objective.
func (o *Objective) Record(ok bool) {
	if o == nil {
		return
	}
	o.total.Inc()
	if ok {
		o.good.Inc()
	}
}

// Observe folds one latency event in: good iff it succeeded within the
// threshold.
func (o *Objective) Observe(d time.Duration, failed bool) {
	if o == nil {
		return
	}
	o.total.Inc()
	if !failed && d <= o.Threshold {
		o.good.Inc()
	}
}

// maxObjectives bounds dynamically created objectives (per-endpoint,
// per-fingerprint); static ones are added first and always fit.
const maxObjectives = 128

// SLOSet owns the objectives. All methods are safe for concurrent use; a
// nil *SLOSet is a valid no-op.
type SLOSet struct {
	mu         sync.Mutex
	reg        *Registry
	objectives map[string]*Objective
}

// NewSLOSet builds an empty SLO set whose counters live on reg (nil means
// Default).
func NewSLOSet(reg *Registry) *SLOSet {
	if reg == nil {
		reg = Default
	}
	reg.Help("rdfa_slo_events_total", "SLO-tracked events per objective.")
	reg.Help("rdfa_slo_good_total", "SLO-good events per objective.")
	return &SLOSet{reg: reg, objectives: map[string]*Objective{}}
}

// Add registers (or returns the existing) objective. Returns nil when the
// set is full — callers treat a nil objective as a no-op, so dynamic
// per-endpoint/per-fingerprint creation degrades gracefully.
func (s *SLOSet) Add(name string, kind SLOKind, target float64, threshold time.Duration) *Objective {
	if s == nil || target <= 0 || target >= 1 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if o, ok := s.objectives[name]; ok {
		return o
	}
	if len(s.objectives) >= maxObjectives {
		return nil
	}
	o := &Objective{
		Name: name, Kind: kind, Target: target, Threshold: threshold,
		good:  s.reg.Counter("rdfa_slo_good_total", "objective", name),
		total: s.reg.Counter("rdfa_slo_events_total", "objective", name),
	}
	s.objectives[name] = o
	return o
}
