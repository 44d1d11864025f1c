package resilience

import (
	"context"
	"errors"
	"sync"
)

// Singleflight with reference-counted cancellation: N concurrent callers of
// Do with the same key share one execution of fn. The leader runs fn under a
// *detached* context, so a follower — or even the leader's own client —
// disconnecting does not abort the work the remaining waiters still need.
// Each waiter that gives up decrements a reference count; when the last
// waiter abandons the call, the execution context is cancelled and the
// engine's cooperative cancellation stops the now-unwanted work.
//
// The execution has one cancellable context and arms no timer of its own:
// it ends at the leader's deadline, which a server derives from the same
// per-query timeout for every request, so every follower — arrived later —
// has one no earlier.

// call is one in-flight execution.
type call struct {
	done    chan struct{}
	val     any
	err     error
	waiters int
	cancel  context.CancelCauseFunc
}

// Group collapses concurrent executions by key. The zero value is ready to
// use.
type Group struct {
	mu    sync.Mutex
	calls map[string]*call
}

// Do executes fn under key, collapsing concurrent duplicate calls: the
// first caller (the leader) runs fn, everyone else waits for the shared
// result. shared reports whether this caller was a *follower* — it received
// a result computed by the leader without executing fn itself — so summing
// shared outcomes counts exactly the collapsed executions (N concurrent
// identical calls → 1 execution, N-1 shared).
//
// fn receives a context detached from any single caller's request: it is
// cancelled when the leader's deadline passes or when every waiter has
// abandoned the call, whichever comes first; a leader without a deadline
// leaves the execution unbounded in time. A waiter whose own ctx ends before
// the result is ready returns ctx.Err() without disturbing the remaining
// waiters. The cancellation carries its reason as the execution context's
// cause — context.Cause(execCtx) reports DeadlineExceeded for the leader's
// deadline, and the last abandoning waiter's own cause otherwise — so
// callers can tell an effective timeout from a client disconnect.
func (g *Group) Do(ctx context.Context, key string, fn func(context.Context) (any, error)) (v any, shared bool, err error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = map[string]*call{}
	}
	if c, ok := g.calls[key]; ok {
		c.waiters++
		g.mu.Unlock()
		return g.wait(ctx, c)
	}
	execCtx, cancel := context.WithCancelCause(context.Background())
	c := &call{done: make(chan struct{}), waiters: 1, cancel: cancel}
	g.calls[key] = c
	g.mu.Unlock()

	// The leader's request ending past its deadline ends the execution; a
	// leader that went away becomes an ordinary abandoning waiter, and the
	// execution keeps running as long as any follower remains.
	stop := context.AfterFunc(ctx, func() {
		if cause := context.Cause(ctx); errors.Is(cause, context.DeadlineExceeded) {
			cancel(cause)
		} else {
			g.abandon(c, cause)
		}
	})
	c.val, c.err = fn(execCtx)
	stop()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	cancel(nil)
	return c.val, false, c.err
}

// wait blocks a follower until the call completes or its own ctx ends.
func (g *Group) wait(ctx context.Context, c *call) (any, bool, error) {
	select {
	case <-c.done:
		return c.val, true, c.err
	case <-ctx.Done():
		g.abandon(c, context.Cause(ctx))
		return nil, true, ctx.Err()
	}
}

// abandon drops one waiter's interest in c; the last abandonment cancels
// the execution context with the abandoning waiter's own cause.
func (g *Group) abandon(c *call, cause error) {
	g.mu.Lock()
	c.waiters--
	last := c.waiters <= 0
	g.mu.Unlock()
	if last {
		c.cancel(cause)
	}
}
