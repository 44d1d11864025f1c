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
	ReasonQueueFull = "queue_full"
	ReasonDeadline  = "deadline"
	ReasonDraining  = "draining" // a draining server does not queue
)

// Retry-After hints: a shed request may come back in a second; a draining
// server is on its way out, so its clients back off longer.
const (
	retryAfterShed     = time.Second
	retryAfterDraining = 2 * time.Second
)

// AdmitError is a structured admission rejection: the request was shed
// before touching the engine. RetryAfter is the client back-off hint for
// the Retry-After header, a whole number of seconds.
type AdmitError struct {
	Reason     string
	Msg        string
	RetryAfter time.Duration
}

func (e *AdmitError) Error() string {
	return fmt.Sprintf("admission rejected (%s): %s", e.Reason, e.Msg)
}

// Admission is the concurrency gate in front of query execution: a
// semaphore of maxConcurrent slots with a wait queue of at most queueDepth.
// A nil *Admission admits everything (gate disabled).
//
// State machine per request:
//
//	arrive → [free slot]                → admitted → release()
//	       → [draining]                 → reject(draining)
//	       → [queue full]               → reject(queue_full)
//	       → wait for slot ──ctx ends── → reject(deadline)
//	                       └─slot free─ → admitted → release()
type Admission struct {
	slots      chan struct{} // one element per executing request
	queueDepth int

	mu      sync.Mutex
	waiting int
}

// NewAdmission builds a gate with maxConcurrent execution slots and a wait
// queue of queueDepth. maxConcurrent <= 0 returns nil (gate disabled —
// every Acquire succeeds immediately).
func NewAdmission(maxConcurrent, queueDepth int) *Admission {
	if maxConcurrent <= 0 {
		return nil
	}
	return &Admission{
		slots:      make(chan struct{}, maxConcurrent),
		queueDepth: max(queueDepth, 0),
	}
}

// Acquire admits the request or rejects it with an AdmitError. On success
// the returned release must be called exactly once when execution finishes.
// draining admits only if a slot is immediately free — a server that is
// shutting down must not grow its queue.
func (a *Admission) Acquire(ctx context.Context, draining bool) (release func(), aerr *AdmitError) {
	if a == nil {
		return func() {}, nil
	}

	// Fast path: free slot right now.
	select {
	case a.slots <- struct{}{}:
		return a.admitted(), nil
	default:
	}

	if draining {
		return nil, &AdmitError{
			Reason:     ReasonDraining,
			Msg:        "server draining: not queueing new work",
			RetryAfter: retryAfterDraining,
		}
	}

	a.mu.Lock()
	if a.waiting >= a.queueDepth {
		a.mu.Unlock()
		return nil, &AdmitError{
			Reason:     ReasonQueueFull,
			Msg:        fmt.Sprintf("wait queue full (%d waiting)", a.queueDepth),
			RetryAfter: retryAfterShed,
		}
	}
	a.waiting++
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		a.waiting--
		a.mu.Unlock()
	}()

	select {
	case a.slots <- struct{}{}:
		return a.admitted(), nil
	case <-ctx.Done():
		return nil, &AdmitError{
			Reason:     ReasonDeadline,
			Msg:        "context ended while queued: " + ctx.Err().Error(),
			RetryAfter: retryAfterShed,
		}
	}
}

// admitted returns the one-shot release of the slot just taken.
func (a *Admission) admitted() func() {
	var once sync.Once
	return func() { once.Do(func() { <-a.slots }) }
}

// Inflight returns the number of currently executing requests.
func (a *Admission) Inflight() int {
	if a == nil {
		return 0
	}
	return len(a.slots)
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
