package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ---- SizedLRU ----

func TestSizedLRUBasics(t *testing.T) {
	var evicted []string
	c := NewSizedLRU[string](100, func(k string, _ int64) { evicted = append(evicted, k) })
	c.Put("a", "A", 40)
	c.Put("b", "B", 40)
	if v, ok := c.Get("a"); !ok || v != "A" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	// "a" is now most recent; inserting 40 more bytes must evict "b".
	c.Put("c", "C", 40)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU order)")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted = %v, want [b]", evicted)
	}
	if c.Evictions() != 1 {
		t.Fatalf("Evictions = %d, want 1", c.Evictions())
	}
	if c.Bytes() != 80 || c.Len() != 2 {
		t.Fatalf("Bytes/Len = %d/%d, want 80/2", c.Bytes(), c.Len())
	}
}

func TestSizedLRUReplaceAndOversize(t *testing.T) {
	c := NewSizedLRU[int](100, nil)
	c.Put("k", 1, 60)
	c.Put("k", 2, 30) // replace: bytes must drop to 30
	if c.Bytes() != 30 || c.Len() != 1 {
		t.Fatalf("after replace Bytes/Len = %d/%d", c.Bytes(), c.Len())
	}
	if v, _ := c.Get("k"); v != 2 {
		t.Fatalf("Get(k) = %d, want 2", v)
	}
	c.Put("big", 9, 101) // larger than whole budget: refused
	if _, ok := c.Get("big"); ok {
		t.Fatal("oversized entry must be refused")
	}
	// Oversized replace drops the old entry too (new value declared
	// authoritative).
	c.Put("k", 3, 200)
	if _, ok := c.Get("k"); ok {
		t.Fatal("oversized replace must drop the stale entry")
	}
	if c.Bytes() != 0 {
		t.Fatalf("Bytes = %d, want 0", c.Bytes())
	}
}

func TestSizedLRUNilSafe(t *testing.T) {
	var c *SizedLRU[string]
	if c := NewSizedLRU[string](0, nil); c != nil {
		t.Fatal("maxBytes<=0 must return nil")
	}
	c.Put("k", "v", 1)
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache must miss")
	}
	c.Delete("k")
	c.Purge()
	if c.Len() != 0 || c.Bytes() != 0 || c.Evictions() != 0 || c.MaxBytes() != 0 {
		t.Fatal("nil cache accessors must return zero")
	}
}

func TestSizedLRUConcurrent(t *testing.T) {
	c := NewSizedLRU[int](1<<20, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				k := fmt.Sprintf("k%d", j%32)
				c.Put(k, j, 100)
				c.Get(k)
				if j%17 == 0 {
					c.Delete(k)
				}
			}
		}(i)
	}
	wg.Wait()
}

// ---- singleflight ----

func TestSingleflightCollapses(t *testing.T) {
	var g Group
	var execs atomic.Int64
	const n = 64
	start := make(chan struct{})
	var wg sync.WaitGroup
	var sharedCount atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, shared, err := g.Do(context.Background(), "k", time.Second, func(ctx context.Context) (any, error) {
				execs.Add(1)
				time.Sleep(50 * time.Millisecond) // hold the call open for followers
				return "result", nil
			})
			if err != nil || v != "result" {
				t.Errorf("Do = %v, %v", v, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if execs.Load() != 1 {
		t.Fatalf("executions = %d, want 1", execs.Load())
	}
	if sharedCount.Load() != n-1 {
		t.Fatalf("shared (followers) = %d, want %d", sharedCount.Load(), n-1)
	}
}

func TestSingleflightFollowerAbandon(t *testing.T) {
	var g Group
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := g.Do(context.Background(), "k", 0, func(ctx context.Context) (any, error) {
			<-release
			return 1, nil
		})
		if err != nil {
			t.Errorf("leader err = %v", err)
		}
	}()
	// Follower with an already-short deadline abandons; the leader's call
	// must still complete.
	time.Sleep(10 * time.Millisecond) // let the leader register
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, shared, err := g.Do(ctx, "k", 0, func(ctx context.Context) (any, error) {
		t.Error("follower must not execute fn")
		return nil, nil
	})
	if !shared || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower: shared=%v err=%v", shared, err)
	}
	close(release)
	wg.Wait()
}

func TestSingleflightLastWaiterCancels(t *testing.T) {
	var g Group
	sawCancel := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.Do(ctx, "k", 0, func(execCtx context.Context) (any, error) {
			<-execCtx.Done() // must fire when the lone caller leaves
			close(sawCancel)
			return nil, execCtx.Err()
		})
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case <-sawCancel:
	case <-time.After(2 * time.Second):
		t.Fatal("execution context was not cancelled after last waiter left")
	}
	<-done
}

func TestSingleflightNilGroup(t *testing.T) {
	var g *Group
	v, shared, err := g.Do(context.Background(), "k", 0, func(ctx context.Context) (any, error) { return 7, nil })
	if v != 7 || shared || err != nil {
		t.Fatalf("nil group Do = %v, %v, %v", v, shared, err)
	}
}

// ---- AnswerCache ----

func TestAnswerCacheFreshStaleNegative(t *testing.T) {
	c := NewAnswerCache(1<<20, 50*time.Millisecond, nil)
	now := time.Now()
	key := CacheKey("fp1", "SELECT 1")
	c.Store(key, &Answer{Body: []byte("r"), Status: 200, Version: 7, When: now})

	if _, ok := c.Lookup(key, 7); !ok {
		t.Fatal("fresh lookup at same version must hit")
	}
	if _, ok := c.Lookup(key, 8); ok {
		t.Fatal("lookup at newer graph version must miss")
	}
	// Stale lookup ignores version within the window…
	if _, ok := c.LookupStale(key, now.Add(time.Second), 2*time.Second); !ok {
		t.Fatal("stale lookup within window must hit")
	}
	// …but not beyond it, and not when disabled.
	if _, ok := c.LookupStale(key, now.Add(3*time.Second), 2*time.Second); ok {
		t.Fatal("stale lookup beyond window must miss")
	}
	if _, ok := c.LookupStale(key, now, 0); ok {
		t.Fatal("window<=0 must disable stale serving")
	}

	c.StoreNegative("BROKEN {", 400, "parse_error", "syntax", now)
	if st, reason, _, ok := c.LookupNegative("BROKEN {", now.Add(10*time.Millisecond)); !ok || st != 400 || reason != "parse_error" {
		t.Fatalf("negative lookup = %d %q %v", st, reason, ok)
	}
	if _, _, _, ok := c.LookupNegative("BROKEN {", now.Add(time.Second)); ok {
		t.Fatal("negative entry must expire after TTL")
	}
}

func TestAnswerCacheKeyConstantsDistinct(t *testing.T) {
	// Same fingerprint, different constants: distinct keys by construction.
	k1 := CacheKey("fp", `SELECT ?s WHERE { ?s ?p "a" }`)
	k2 := CacheKey("fp", `SELECT ?s WHERE { ?s ?p "b" }`)
	if k1 == k2 {
		t.Fatal("keys for different constants must differ")
	}
}

func TestAnswerCacheNil(t *testing.T) {
	var c *AnswerCache
	if c := NewAnswerCache(0, 0, nil); c != nil {
		t.Fatal("maxBytes<=0 must return nil")
	}
	if c.Enabled() {
		t.Fatal("nil cache must report disabled")
	}
	c.Store("k", &Answer{})
	if _, ok := c.Lookup("k", 0); ok {
		t.Fatal("nil cache must miss")
	}
	c.StoreNegative("q", 400, "r", "m", time.Now())
	if _, _, _, ok := c.LookupNegative("q", time.Now()); ok {
		t.Fatal("nil negative cache must miss")
	}
	c.Purge()
}

func TestAnswerCacheNegativeBounded(t *testing.T) {
	c := NewAnswerCache(1024, time.Hour, nil)
	now := time.Now()
	for i := 0; i < maxNegEntries+10; i++ {
		c.StoreNegative(fmt.Sprintf("q%d", i), 400, "parse_error", "x", now)
	}
	c.negMu.Lock()
	n := len(c.neg)
	c.negMu.Unlock()
	if n > maxNegEntries {
		t.Fatalf("negative cache grew to %d > cap %d", n, maxNegEntries)
	}
}

// ---- Admission ----

func TestAdmissionGateAndQueue(t *testing.T) {
	a := NewAdmission(1, 1)
	rel1, err := a.Acquire(context.Background(), "s1", false)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if a.Inflight() != 1 {
		t.Fatalf("Inflight = %d, want 1", a.Inflight())
	}

	// Second request queues; third overflows.
	got2 := make(chan *AdmitError, 1)
	started := make(chan struct{})
	go func() {
		close(started)
		rel2, err := a.Acquire(context.Background(), "s2", false)
		got2 <- err
		if err == nil {
			rel2()
		}
	}()
	<-started
	waitFor(t, func() bool { return a.Waiting() == 1 })

	_, err3 := a.Acquire(context.Background(), "s3", false)
	if err3 == nil || err3.Reason != ReasonQueueFull {
		t.Fatalf("overflow: %+v, want queue_full", err3)
	}
	if err3.RetryAfter <= 0 {
		t.Fatal("queue_full rejection must carry RetryAfter")
	}

	rel1()
	if err := <-got2; err != nil {
		t.Fatalf("queued request must be admitted after release: %v", err)
	}
	waitFor(t, func() bool { return a.Inflight() == 0 && a.Waiting() == 0 })
}

func TestAdmissionDegradedNoQueue(t *testing.T) {
	a := NewAdmission(1, 8)
	rel, err := a.Acquire(context.Background(), "", false)
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	_, derr := a.Acquire(context.Background(), "", true)
	if derr == nil || derr.Reason != ReasonDegraded {
		t.Fatalf("degraded acquire with busy gate = %+v, want degraded rejection", derr)
	}
}

func TestAdmissionDeadlineUnmeetable(t *testing.T) {
	a := NewAdmission(1, 8)
	rel, err := a.Acquire(context.Background(), "", false)
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	// Zero-ish deadline cannot beat even the 50ms default service estimate.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, derr := a.Acquire(ctx, "", false)
	if derr == nil || derr.Reason != ReasonDeadline {
		t.Fatalf("unmeetable deadline = %+v, want deadline rejection", derr)
	}
}

func TestAdmissionShapeFairness(t *testing.T) {
	a := NewAdmission(1, 4) // per-shape wait cap = 2
	rel, err := a.Acquire(context.Background(), "hot", false)
	if err != nil {
		t.Fatal(err)
	}
	defer rel()

	ctxs := make([]context.CancelFunc, 0, 2)
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		ctxs = append(ctxs, cancel)
		go a.Acquire(ctx, "hot", false)
	}
	waitFor(t, func() bool { return a.Waiting() == 2 })

	// Third hot waiter exceeds the shape's fair share of the queue…
	_, serr := a.Acquire(context.Background(), "hot", false)
	if serr == nil || serr.Reason != ReasonShapeLimit {
		t.Fatalf("hot shape over fair share = %+v, want shape_limit", serr)
	}
	// …but a different shape still gets a queue position.
	ctx, cancel := context.WithCancel(context.Background())
	go a.Acquire(ctx, "cold", false)
	waitFor(t, func() bool { return a.Waiting() == 3 })
	cancel()
	for _, c := range ctxs {
		c()
	}
	waitFor(t, func() bool { return a.Waiting() == 0 })
}

func TestAdmissionNil(t *testing.T) {
	var a *Admission
	if a := NewAdmission(0, 4); a != nil {
		t.Fatal("maxConcurrent<=0 must return nil")
	}
	rel, err := a.Acquire(context.Background(), "s", true)
	if err != nil {
		t.Fatalf("nil gate must admit: %v", err)
	}
	rel()
	if a.Inflight() != 0 || a.Waiting() != 0 || a.RetryAfter() != 0 {
		t.Fatal("nil gate accessors must return zero")
	}
}

// ---- Breakers ----

func TestBreakerOpensHalfOpensCloses(t *testing.T) {
	var transitions []string
	b := NewBreakers(3, 100*time.Millisecond, func(to string) { transitions = append(transitions, to) })
	now := time.Now()

	for i := 0; i < 2; i++ {
		b.Observe("fp", true, now)
		if err := b.Allow("fp", now); err != nil {
			t.Fatalf("breaker must stay closed below threshold: %v", err)
		}
	}
	b.Observe("fp", true, now) // third consecutive abort
	if b.State("fp") != StateOpen {
		t.Fatalf("state = %s, want open", b.State("fp"))
	}
	err := b.Allow("fp", now.Add(10*time.Millisecond))
	if err == nil || err.Reason != ReasonBreaker || err.RetryAfter <= 0 {
		t.Fatalf("open breaker must reject with retry-after: %+v", err)
	}

	// Cooldown elapsed: first caller becomes the probe, second is rejected.
	probeAt := now.Add(200 * time.Millisecond)
	if err := b.Allow("fp", probeAt); err != nil {
		t.Fatalf("probe must be admitted after cooldown: %v", err)
	}
	if err := b.Allow("fp", probeAt); err == nil {
		t.Fatal("second caller during probe must be rejected")
	}
	// Probe succeeds: breaker closes.
	b.Observe("fp", false, probeAt)
	if b.State("fp") != StateClosed {
		t.Fatalf("state after good probe = %s, want closed", b.State("fp"))
	}
	if err := b.Allow("fp", probeAt); err != nil {
		t.Fatalf("closed breaker must admit: %v", err)
	}

	want := []string{StateOpen, StateHalfOpen, StateClosed}
	if fmt.Sprint(transitions) != fmt.Sprint(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	b := NewBreakers(1, 100*time.Millisecond, nil)
	now := time.Now()
	b.Observe("fp", true, now) // threshold 1: opens
	probeAt := now.Add(200 * time.Millisecond)
	if err := b.Allow("fp", probeAt); err != nil {
		t.Fatalf("probe: %v", err)
	}
	b.Observe("fp", true, probeAt) // probe aborts again
	if b.State("fp") != StateOpen {
		t.Fatalf("state after failed probe = %s, want open", b.State("fp"))
	}
	// And the cooldown restarts from the probe.
	if err := b.Allow("fp", probeAt.Add(50*time.Millisecond)); err == nil {
		t.Fatal("breaker must stay open through the restarted cooldown")
	}
}

func TestBreakerCapBoundsEntries(t *testing.T) {
	b := NewBreakers(0, 0, nil)
	b.maxShapes = 8
	now := time.Now()
	for i := 0; i < 50; i++ {
		b.Observe(fmt.Sprintf("fp%d", i), false, now.Add(time.Duration(i)*time.Millisecond))
	}
	b.mu.Lock()
	n := len(b.entries)
	b.mu.Unlock()
	if n > 8 {
		t.Fatalf("breaker entries = %d > cap 8", n)
	}
}

func TestBreakerNil(t *testing.T) {
	var b *Breakers
	if err := b.Allow("fp", time.Now()); err != nil {
		t.Fatal("nil breakers must allow")
	}
	b.Observe("fp", true, time.Now())
	if s := b.State("fp"); s != StateClosed {
		t.Fatalf("nil breakers state = %s", s)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
