package sparql

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Resource governance for query evaluation. The paper's promise is
// *interactive* analytics; a pathological query (cross-product BGP,
// unbounded property path, huge GROUP BY) must be stoppable, not merely
// observable. Three mechanisms compose:
//
//  1. Cooperative cancellation: the evaluator polls its context at every
//     operator boundary and every pollEvery rows inside hot loops (including
//     worker-pool partitions), so a deadline or client disconnect aborts
//     evaluation within a bounded amount of extra work.
//  2. A row budget (Limits.MaxIntermediateRows) on intermediate binding
//     sets, checked incrementally while a join is producing rows — a
//     cross-product is killed while it is still small, not after it has
//     consumed the heap.
//  3. Depth and visited-set caps on property-path expansion, which bound
//     the worst case of p* / p+ over cyclic or high-fanout graphs.
//
// All three surface as typed errors from the Exec entry points; partial
// results are never returned.

// pollEvery is the number of rows a hot loop processes between cancellation
// and budget checks: large enough that the atomic load is amortized to
// noise, small enough that abort latency stays far below any realistic
// deadline.
const pollEvery = 1024

// Default property-path caps, applied when the corresponding Limits field
// is zero. They are far above anything a sane interactive query needs while
// still bounding the worst case; set a field negative to disable the cap.
const (
	DefaultMaxPathDepth   = 10_000
	DefaultMaxPathVisited = 5_000_000
)

// Limits bounds the resources one query evaluation may consume. The zero
// value means "no row budget, default path caps".
type Limits struct {
	// MaxIntermediateRows caps the size of any intermediate binding set
	// (including rows being produced inside one join). 0 disables the cap.
	MaxIntermediateRows int
	// MaxPathDepth caps BFS depth in property-path expansion
	// (0 = DefaultMaxPathDepth, negative = unlimited).
	MaxPathDepth int
	// MaxPathVisited caps the visited-node set of one property-path
	// expansion (0 = DefaultMaxPathVisited, negative = unlimited).
	MaxPathVisited int
}

// pathDepth resolves the effective path-depth cap (0 = unlimited).
func (l Limits) pathDepth() int {
	switch {
	case l.MaxPathDepth < 0:
		return 0
	case l.MaxPathDepth == 0:
		return DefaultMaxPathDepth
	default:
		return l.MaxPathDepth
	}
}

// pathVisited resolves the effective visited-set cap (0 = unlimited).
func (l Limits) pathVisited() int {
	switch {
	case l.MaxPathVisited < 0:
		return 0
	case l.MaxPathVisited == 0:
		return DefaultMaxPathVisited
	default:
		return l.MaxPathVisited
	}
}

// ErrBudgetExceeded is the sentinel matched by errors.Is for every resource
// budget violation (row budget, path depth, path visited set).
var ErrBudgetExceeded = errors.New("sparql: resource budget exceeded")

// BudgetError is the typed error returned when a query exceeds one of its
// resource limits. It matches ErrBudgetExceeded under errors.Is.
type BudgetError struct {
	// Resource names the exhausted budget: "rows", "path_depth" or
	// "path_visited".
	Resource string
	// Used is the resource consumption at the moment the cap tripped.
	Used int
	// Limit is the configured cap.
	Limit int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("sparql: %s budget exceeded (%d > %d)", e.Resource, e.Used, e.Limit)
}

// Is makes errors.Is(err, ErrBudgetExceeded) true for every BudgetError.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }

// evalCancel is the evaluator's shared abort state. Worker goroutines
// observe `stopped` with one atomic load; the first abort wins and records
// the cause. It is shared by reference between an evaluator and the
// sub-evaluators it spawns (subqueries, EXISTS), so a deadline tears down
// the whole tree.
type evalCancel struct {
	ctx     context.Context
	stopped atomic.Bool
	once    sync.Once
	err     error
	// patRows counts rows produced by the join currently executing (reset
	// per pattern); incremented in batches from worker partitions so the
	// row budget is enforced while a join is still producing.
	patRows atomic.Int64
}

// abort records the first abort cause and flips the stop flag. Safe for
// concurrent use from worker goroutines.
func (c *evalCancel) abort(err error) {
	c.once.Do(func() {
		c.err = err
		c.stopped.Store(true)
	})
}

// aborted reports whether evaluation must stop. One atomic load.
func (c *evalCancel) aborted() bool { return c.stopped.Load() }

// cause returns the abort cause, or nil when evaluation is still live. Only
// meaningful after aborted() returned true (the Once store ordering makes
// err visible then).
func (c *evalCancel) cause() error {
	if !c.stopped.Load() {
		return nil
	}
	return c.err
}

// poll checks the context (deadline, client disconnect) and returns whether
// evaluation must stop. Operator boundaries call it directly; hot loops
// call it every pollEvery rows. The abort cause is context.Cause, not
// ctx.Err: a singleflight execution abandoned because its last waiter's
// deadline expired is cancelled with that deadline as cause, moments before
// its own identical timer fires, and must report as the timeout it is.
func (c *evalCancel) poll() bool {
	if c.stopped.Load() {
		return true
	}
	if c.ctx.Err() != nil {
		c.abort(context.Cause(c.ctx))
		return true
	}
	return false
}

// addRows accounts n freshly produced intermediate rows against the row
// budget (maxRows <= 0 disables). Returns true when the budget tripped;
// the caller must stop producing.
func (c *evalCancel) addRows(n int, maxRows int) bool {
	if maxRows <= 0 {
		return c.stopped.Load()
	}
	total := c.patRows.Add(int64(n))
	if total > int64(maxRows) {
		c.abort(&BudgetError{Resource: "rows", Used: int(total), Limit: maxRows})
		return true
	}
	return c.stopped.Load()
}

// resetRows starts a fresh row-budget window (called at each operator that
// materializes a new intermediate binding set).
func (c *evalCancel) resetRows() { c.patRows.Store(0) }
