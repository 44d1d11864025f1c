package resilience

import (
	"fmt"
	"sync"
	"time"
)

// Breaker states.
const (
	StateClosed   = "closed"
	StateOpen     = "open"
	StateHalfOpen = "half_open"
)

// breakerEntry is one fingerprint's breaker.
type breakerEntry struct {
	state       string
	consecAbort int
	openedAt    time.Time
	probing     bool // a half-open probe is in flight

	// lastTouch orders entries for dropColdestLocked.
	lastTouch time.Time
}

// Breakers holds a per-fingerprint circuit breaker. A shape's breaker opens
// after Threshold consecutive budget/timeout aborts, rejects work for
// Cooldown, then half-opens: exactly one probe request is let through, and
// its outcome closes the breaker again or re-opens it for another cooldown.
// The entry map is capped; coldest entries are dropped when full (losing a
// breaker merely forgets history — fail-safe toward admitting).
//
// A nil *Breakers allows everything and records nothing.
type Breakers struct {
	mu        sync.Mutex
	entries   map[string]*breakerEntry
	threshold int
	cooldown  time.Duration
	maxShapes int

	transitions func(to string) // metric hook, may be nil
}

// Breaker tuning defaults.
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 5 * time.Second
	defaultBreakerMaxShapes = 512
)

// NewBreakers builds the per-fingerprint breaker table. threshold <= 0 or
// cooldown <= 0 select the defaults. onTransition (may be nil) is invoked
// with the new state on every state change, for metrics.
func NewBreakers(threshold int, cooldown time.Duration, onTransition func(to string)) *Breakers {
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return &Breakers{
		entries:     map[string]*breakerEntry{},
		threshold:   threshold,
		cooldown:    cooldown,
		maxShapes:   defaultBreakerMaxShapes,
		transitions: onTransition,
	}
}

// Allow reports whether a request for shape may proceed. An open breaker
// rejects with an AdmitError carrying the remaining cooldown as RetryAfter;
// once the cooldown elapses, the first caller through becomes the half-open
// probe and subsequent callers keep being rejected until the probe reports
// back via Observe.
func (b *Breakers) Allow(shape string, now time.Time) *AdmitError {
	if b == nil || shape == "" {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[shape]
	if !ok {
		return nil
	}
	e.lastTouch = now
	switch e.state {
	case StateOpen:
		if remaining := b.cooldown - now.Sub(e.openedAt); remaining > 0 {
			return &AdmitError{
				Reason:     ReasonBreaker,
				Msg:        fmt.Sprintf("circuit open for this query shape (%s of cooldown left)", remaining.Round(time.Millisecond)),
				RetryAfter: remaining,
			}
		}
		e.state = StateHalfOpen
		e.probing = true
		b.transition(StateHalfOpen)
		return nil // this caller is the probe
	case StateHalfOpen:
		if e.probing {
			return &AdmitError{
				Reason:     ReasonBreaker,
				Msg:        "circuit half-open: probe in flight for this query shape",
				RetryAfter: time.Second,
			}
		}
		e.probing = true
		return nil
	default:
		return nil
	}
}

// Observe records one finished execution for shape. aborted marks a
// budget/timeout abort (the failure class that trips the breaker); other
// errors and successes reset the consecutive-abort count.
func (b *Breakers) Observe(shape string, aborted bool, now time.Time) {
	if b == nil || shape == "" {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[shape]
	if !ok {
		if len(b.entries) >= b.maxShapes {
			b.dropColdestLocked()
		}
		e = &breakerEntry{state: StateClosed}
		b.entries[shape] = e
	}
	e.lastTouch = now

	wasProbe := e.state == StateHalfOpen
	e.probing = false
	if aborted {
		e.consecAbort++
		if wasProbe || e.consecAbort >= b.threshold {
			if e.state != StateOpen {
				e.state = StateOpen
				b.transition(StateOpen)
			}
			e.openedAt = now
			e.consecAbort = 0
		}
		return
	}
	e.consecAbort = 0
	if e.state != StateClosed {
		e.state = StateClosed
		b.transition(StateClosed)
	}
}

// State returns the breaker state for shape (StateClosed if untracked).
func (b *Breakers) State(shape string) string {
	if b == nil || shape == "" {
		return StateClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, ok := b.entries[shape]; ok {
		return e.state
	}
	return StateClosed
}

func (b *Breakers) transition(to string) {
	if b.transitions != nil {
		b.transitions(to)
	}
}

// dropColdestLocked evicts the least-recently-touched entry (callers hold
// mu). Open breakers are spared when possible so an actively failing shape
// does not get amnesty by cache pressure.
func (b *Breakers) dropColdestLocked() {
	var coldKey string
	var coldAt time.Time
	first := true
	for k, e := range b.entries {
		if e.state == StateOpen {
			continue
		}
		if first || e.lastTouch.Before(coldAt) {
			coldKey, coldAt, first = k, e.lastTouch, false
		}
	}
	if first { // everything open — drop any one entry
		for k := range b.entries {
			coldKey = k
			break
		}
	}
	delete(b.entries, coldKey)
}
