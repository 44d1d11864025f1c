package resilience

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Admission reasons, used as the `reason` field of the structured 503 body
// and as the metric label on rdfa_admission_rejected_total.
const (
	ReasonQueueFull  = "queue_full"
	ReasonShapeLimit = "shape_limit"
	ReasonDeadline   = "deadline"
	ReasonDegraded   = "degraded" // a draining server does not queue
	ReasonBreaker    = "breaker_open"
)

// AdmitError is a structured admission rejection: the request was shed
// before touching the engine. RetryAfter is the client back-off hint for
// the Retry-After header (0 means "do not send the header").
type AdmitError struct {
	Reason     string
	Msg        string
	RetryAfter time.Duration
}

func (e *AdmitError) Error() string {
	return fmt.Sprintf("admission rejected (%s): %s", e.Reason, e.Msg)
}

// Admission is the concurrency gate in front of query execution: at most
// maxConcurrent queries run, at most queueDepth more wait, and a waiter
// whose context deadline cannot be met given the queue ahead of it is
// rejected immediately rather than left to time out in line. Per-shape
// counters keep one hot fingerprint from occupying every slot and every
// queue position. A nil *Admission admits everything (gate disabled).
//
// State machine per request:
//
//	arrive → [deadline unmeetable]        → reject(deadline)
//	       → [queue full]                 → reject(queue_full)
//	       → [shape over fair share]      → reject(shape_limit)
//	       → [draining && must queue]     → reject(degraded)
//	       → wait for slot ──ctx ends──   → reject(deadline)
//	                       └─slot free──  → admitted → release()
type Admission struct {
	slots      chan struct{}
	queueDepth int

	mu       sync.Mutex
	waiting  int
	byShape  map[string]*shapeLoad
	inflight int

	// expectedWait estimates how long a new arrival will wait: a fresh
	// EWMA of recent gate-to-release durations scaled by queue position.
	ewmaService time.Duration
}

// shapeLoad tracks one fingerprint's occupancy of the gate.
type shapeLoad struct {
	waiting  int
	inflight int
}

// NewAdmission builds a gate with maxConcurrent execution slots and a wait
// queue of queueDepth. maxConcurrent <= 0 returns nil (gate disabled —
// every Acquire succeeds immediately).
func NewAdmission(maxConcurrent, queueDepth int) *Admission {
	if maxConcurrent <= 0 {
		return nil
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	return &Admission{
		slots:      make(chan struct{}, maxConcurrent),
		queueDepth: queueDepth,
		byShape:    map[string]*shapeLoad{},
	}
}

// shapeWaitCap is each fingerprint's fair share of the wait queue: half the
// queue, but always at least one position.
func (a *Admission) shapeWaitCap() int {
	cap := a.queueDepth / 2
	if cap < 1 {
		cap = 1
	}
	return cap
}

// Acquire admits the request or rejects it with an AdmitError. On success
// the returned release must be called exactly once when execution finishes.
// draining admits only if a slot is immediately free — a server that is
// shutting down must not grow its queue. shape is the query's fingerprint
// ID ("" opts out of per-shape fairness).
func (a *Admission) Acquire(ctx context.Context, shape string, draining bool) (release func(), aerr *AdmitError) {
	if a == nil {
		return func() {}, nil
	}

	// Fast path: free slot right now.
	select {
	case a.slots <- struct{}{}:
		if err := a.takeSlot(shape); err != nil {
			<-a.slots
			return nil, err
		}
		return a.releaseFunc(shape, time.Now()), nil
	default:
	}

	if draining {
		return nil, &AdmitError{
			Reason:     ReasonDegraded,
			Msg:        "server draining: not queueing new work",
			RetryAfter: 2 * time.Second,
		}
	}

	// Queue admission under the lock: position, fairness, and deadline
	// feasibility are all checked against the same snapshot.
	a.mu.Lock()
	if a.waiting >= a.queueDepth {
		a.mu.Unlock()
		return nil, &AdmitError{
			Reason:     ReasonQueueFull,
			Msg:        fmt.Sprintf("wait queue full (%d waiting)", a.queueDepth),
			RetryAfter: a.retryAfterLocked(),
		}
	}
	sl := a.byShape[shape]
	if shape != "" && sl != nil && sl.waiting >= a.shapeWaitCap() {
		a.mu.Unlock()
		return nil, &AdmitError{
			Reason:     ReasonShapeLimit,
			Msg:        "fingerprint over its fair share of the wait queue",
			RetryAfter: a.retryAfterLocked(),
		}
	}
	if dl, ok := ctx.Deadline(); ok {
		// Estimated wait: queue position ahead of us times the recent
		// service EWMA, divided by the slot count draining in parallel.
		est := a.estimateWaitLocked()
		if time.Until(dl) < est {
			a.mu.Unlock()
			return nil, &AdmitError{
				Reason:     ReasonDeadline,
				Msg:        fmt.Sprintf("deadline %s < estimated queue wait %s", time.Until(dl).Round(time.Millisecond), est.Round(time.Millisecond)),
				RetryAfter: est,
			}
		}
	}
	a.waiting++
	if shape != "" {
		if sl == nil {
			sl = &shapeLoad{}
			a.byShape[shape] = sl
		}
		sl.waiting++
	}
	a.mu.Unlock()

	defer func() {
		a.mu.Lock()
		a.waiting--
		if shape != "" {
			if sl := a.byShape[shape]; sl != nil {
				sl.waiting--
				a.dropIfIdleLocked(shape, sl)
			}
		}
		a.mu.Unlock()
	}()

	select {
	case a.slots <- struct{}{}:
		if err := a.takeSlot(shape); err != nil {
			<-a.slots
			return nil, err
		}
		return a.releaseFunc(shape, time.Now()), nil
	case <-ctx.Done():
		return nil, &AdmitError{
			Reason:     ReasonDeadline,
			Msg:        "context ended while queued: " + ctx.Err().Error(),
			RetryAfter: a.RetryAfter(),
		}
	}
}

// takeSlot records slot occupancy; it can still veto on per-shape inflight
// fairness (the caller must then return the channel slot).
func (a *Admission) takeSlot(shape string) *AdmitError {
	a.mu.Lock()
	defer a.mu.Unlock()
	if shape != "" {
		sl := a.byShape[shape]
		if sl == nil {
			sl = &shapeLoad{}
			a.byShape[shape] = sl
		}
		shapeCap := cap(a.slots)/2 + cap(a.slots)%2 // ceil(half the slots)
		if shapeCap < 1 {
			shapeCap = 1
		}
		if sl.inflight >= shapeCap && a.inflight >= shapeCap {
			// Only veto when there is real contention: a lone hot shape on
			// an otherwise idle server may use every slot.
			if a.waiting > 0 {
				return &AdmitError{
					Reason:     ReasonShapeLimit,
					Msg:        "fingerprint over its fair share of execution slots",
					RetryAfter: a.retryAfterLocked(),
				}
			}
		}
		sl.inflight++
	}
	a.inflight++
	return nil
}

func (a *Admission) releaseFunc(shape string, start time.Time) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			a.inflight--
			if shape != "" {
				if sl := a.byShape[shape]; sl != nil {
					sl.inflight--
					a.dropIfIdleLocked(shape, sl)
				}
			}
			// EWMA of service time feeds the deadline-feasibility estimate.
			d := time.Since(start)
			if a.ewmaService == 0 {
				a.ewmaService = d
			} else {
				a.ewmaService = (a.ewmaService*4 + d) / 5
			}
			a.mu.Unlock()
			<-a.slots
		})
	}
}

func (a *Admission) dropIfIdleLocked(shape string, sl *shapeLoad) {
	if sl.waiting <= 0 && sl.inflight <= 0 {
		delete(a.byShape, shape)
	}
}

// estimateWaitLocked predicts a new arrival's queue wait (callers hold mu).
func (a *Admission) estimateWaitLocked() time.Duration {
	svc := a.ewmaService
	if svc == 0 {
		svc = 50 * time.Millisecond
	}
	// waiting requests ahead of us drain cap(slots) at a time.
	rounds := a.waiting/cap(a.slots) + 1
	return svc * time.Duration(rounds)
}

func (a *Admission) retryAfterLocked() time.Duration {
	ra := a.estimateWaitLocked()
	if ra < time.Second {
		ra = time.Second
	}
	return ra
}

// RetryAfter suggests a client back-off based on current load.
func (a *Admission) RetryAfter() time.Duration {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.retryAfterLocked()
}

// Inflight returns the number of currently executing requests.
func (a *Admission) Inflight() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight
}

// Waiting returns the number of queued requests.
func (a *Admission) Waiting() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.waiting
}
