package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdfanalytics/internal/rdf"
)

// ---- SizedLRU ----

func TestSizedLRUBasics(t *testing.T) {
	var evicted []string
	c := NewSizedLRU[string, string](100, func(k string, _ int64) { evicted = append(evicted, k) })
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
	c := NewSizedLRU[string, int](100, nil)
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
	var c *SizedLRU[string, string]
	if c := NewSizedLRU[string, string](0, nil); c != nil {
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
	c := NewSizedLRU[string, int](1<<20, nil)
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
			v, shared, err := g.Do(context.Background(), "k", func(ctx context.Context) (any, error) {
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
		_, _, err := g.Do(context.Background(), "k", func(ctx context.Context) (any, error) {
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
	_, shared, err := g.Do(ctx, "k", func(ctx context.Context) (any, error) {
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
		g.Do(ctx, "k", func(execCtx context.Context) (any, error) {
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

// TestSingleflightLeaderDeadlineEndsTheCall: the execution runs under the
// leader's deadline. When it passes, the execution is cancelled with
// DeadlineExceeded as its cause though a follower still waits, and the
// follower shares the leader's timeout; a leader that merely goes away
// leaves the execution to its followers (TestSingleflightFollowerAbandon's
// mirror).
func TestSingleflightLeaderDeadlineEndsTheCall(t *testing.T) {
	for _, c := range []struct {
		name  string
		cause error
		want  error // the execution's cause, nil when it must run on
	}{
		{"deadline", context.DeadlineExceeded, context.DeadlineExceeded},
		{"hang-up", context.Canceled, nil},
	} {
		var g Group
		leaderCtx, leave := context.WithCancelCause(context.Background())
		joined := make(chan struct{})
		followerErr := make(chan error, 1)
		go func() {
			<-joined
			_, _, err := g.Do(context.Background(), "k", func(context.Context) (any, error) {
				t.Error("follower must not execute fn")
				return nil, nil
			})
			followerErr <- err
		}()
		_, _, err := g.Do(leaderCtx, "k", func(execCtx context.Context) (any, error) {
			close(joined)
			for { // until the follower waits on the call
				g.mu.Lock()
				n := g.calls["k"].waiters
				g.mu.Unlock()
				if n == 2 {
					break
				}
				time.Sleep(time.Millisecond)
			}
			leave(c.cause)
			select {
			case <-execCtx.Done():
				return nil, context.Cause(execCtx)
			case <-time.After(200 * time.Millisecond):
				return "ran on", nil
			}
		})
		if c.want != nil && !errors.Is(err, c.want) || c.want == nil && err != nil {
			t.Errorf("%s: the execution ended with %v, want %v", c.name, err, c.want)
		}
		if ferr := <-followerErr; ferr != err {
			t.Errorf("%s: the follower got %v, the leader's execution %v", c.name, ferr, err)
		}
	}
}

// ---- AnswerCache ----

func TestAnswerCacheFreshStale(t *testing.T) {
	c := NewAnswerCache(1<<20, 0, nil)
	now := time.Now()
	key := Key{Text: "SELECT 1"}
	c.Put(key, &Answer{Body: []byte("r"), Status: 200, Version: 7, When: now})

	if _, ok := c.Get(key, 7); !ok {
		t.Fatal("fresh lookup at same version must hit")
	}
	if _, ok := c.Get(key, 8); ok {
		t.Fatal("lookup at newer graph version must miss")
	}
	// Stale lookup ignores version within the window…
	if _, ok := c.GetStale(key, now.Add(time.Second), 2*time.Second); !ok {
		t.Fatal("stale lookup within window must hit")
	}
	// …but not beyond it, and not when disabled.
	if _, ok := c.GetStale(key, now.Add(3*time.Second), 2*time.Second); ok {
		t.Fatal("stale lookup beyond window must miss")
	}
	if _, ok := c.GetStale(key, now, 0); ok {
		t.Fatal("window<=0 must disable stale serving")
	}
}

func TestAnswerCacheKeyConstantsDistinct(t *testing.T) {
	// Same fingerprint, different constants: distinct keys by construction,
	// and a run's key never equals a query's of the same text.
	c := NewAnswerCache(1<<20, 0, nil)
	k1 := Key{Text: `SELECT ?s WHERE { ?s ?p "a" }`}
	k2 := Key{Text: `SELECT ?s WHERE { ?s ?p "b" }`}
	run := Key{Namespace: "analytics", Text: k1.Text}
	if k1 == k2 || k1 == run {
		t.Fatal("keys for different constants or namespaces must differ")
	}
	c.Put(k1, &Answer{Body: []byte("a"), Version: 1})
	for _, k := range []Key{k2, run} {
		if _, ok := c.Get(k, 1); ok {
			t.Fatalf("entry stored under %+v shows under %+v", k1, k)
		}
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
	c.Put(Key{Text: "k"}, &Answer{})
	if _, ok := c.Get(Key{Text: "k"}, 0); ok {
		t.Fatal("nil cache must miss")
	}
	if _, ok := c.GetStale(Key{Text: "k"}, time.Now(), time.Hour); ok {
		t.Fatal("nil cache must miss a stale lookup")
	}
	c.Purge()
}

// bodyAnswer is an answer computed at version that reads the whole graph,
// with a body of n bytes; entrySize(key, a, n) is what it accounts for.
func bodyAnswer(n int, version uint64) *Answer {
	return &Answer{Body: make([]byte, n), ContentType: "application/json", Version: version, Reads: rdf.ReadSet{All: true}}
}

// fullCache returns a cache of 10 000 bytes holding entries "e0", "e1", … of
// 1 000-byte bodies until the next would not fit, "e0" least recently used.
func fullCache(t *testing.T) (*AnswerCache, int) {
	t.Helper()
	c := NewAnswerCache(10_000, 0, nil)
	n := 0
	for ; ; n++ {
		key := Key{Text: fmt.Sprint("e", n)}
		if c.Bytes()+entrySize(key, bodyAnswer(1000, 0), 1000) > 10_000 {
			break
		}
		if !c.Put(key, bodyAnswer(1000, 0)) {
			t.Fatalf("%v fits in the free space and was refused", key)
		}
	}
	if c.Evictions() != 0 {
		t.Fatalf("filling to the budget evicted %d", c.Evictions())
	}
	return c, n
}

// TestAnswerCacheAdmission: an answer that fits is stored; on a full cache
// a first sight is refused, stores nothing and evicts nothing, and is
// remembered, so the second sight is stored and evicts the LRU tail; a
// resident key, outdated or not, re-fills in place; nothing larger than the
// budget is stored; a nil cache refuses everything.
func TestAnswerCacheAdmission(t *testing.T) {
	g := rdf.NewGraph()
	c, resident := fullCache(t)
	fresh := Key{Text: "new"}
	if c.Admits(fresh, bodyAnswer(1000, 0), 1000) {
		t.Fatal("a first sight on a full cache is admitted")
	}
	if c.Entries() != resident || c.Evictions() != 0 {
		t.Fatalf("a refusal left %d entries (want %d), %d evictions", c.Entries(), resident, c.Evictions())
	}
	if _, ok := c.GetFresh(fresh, g); ok {
		t.Fatal("a refused answer is resident")
	}
	// The refusal is remembered: the second sight is admitted, and stores.
	if !c.Admits(fresh, bodyAnswer(1000, 0), 1000) || !c.Put(fresh, bodyAnswer(1000, 0)) {
		t.Fatal("a second sight on a full cache is refused")
	}
	if _, ok := c.GetFresh(fresh, g); !ok {
		t.Fatal("an admitted answer is not resident")
	}
	if _, ok := c.GetFresh(Key{Text: "e0"}, g); ok || c.Evictions() != 1 {
		t.Fatalf("the second sight evicted %d entries, want the LRU tail e0 alone", c.Evictions())
	}

	// A resident key re-fills in place, from an outdated answer too.
	g.Add(rdf.NewTriple(rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewIRI("o"))) // every answer outdated
	e1 := Key{Text: "e1"}
	if _, ok := c.GetFresh(e1, g); ok {
		t.Fatal("an answer of an older version is fresh")
	}
	evictions := c.Evictions()
	if !c.Put(e1, bodyAnswer(1000, g.Version())) {
		t.Fatal("an outdated resident key's new answer is refused")
	}
	if _, ok := c.GetFresh(e1, g); !ok || c.Evictions() != evictions {
		t.Fatalf("re-fill: fresh hit %v, %d evictions (want %d)", ok, c.Evictions(), evictions)
	}

	// Larger than the budget: refused on every sight, the check and Put alike.
	big := Key{Text: "big"}
	for i := 0; i < 2; i++ {
		if c.Admits(big, bodyAnswer(10_000, 1), 10_000) || c.Put(big, bodyAnswer(10_000, 1)) {
			t.Fatal("an answer larger than the budget is admitted")
		}
	}

	// An answer that fits in the free space is stored at first sight.
	roomy := NewAnswerCache(10_000, 0, nil)
	if !roomy.Admits(fresh, bodyAnswer(1000, 0), 1000) || !roomy.Put(fresh, bodyAnswer(1000, 0)) {
		t.Fatal("an answer that fits is refused")
	}

	var off *AnswerCache
	if off.Admits(fresh, bodyAnswer(1, 1), 1) || off.Put(fresh, bodyAnswer(1, 1)) {
		t.Fatal("a nil cache admits")
	}
}

// TestAdmitsAgreesWithPut: two caches of one seed, driven by one random
// sequence of lookups and fills over more keys than fit, decide every fill
// alike — one asking Admits before each Put, as the server does before it
// renders, the other calling Put alone — and hold the same entries.
func TestAdmitsAgreesWithPut(t *testing.T) {
	g := rdf.NewGraph()
	checked, put := NewAnswerCache(50_000, 0, nil), NewAnswerCache(50_000, 0, nil)
	put.seed = checked.seed
	rng := rand.New(rand.NewSource(1))
	admitted := 0
	for i := 0; i < 5000; i++ {
		key := Key{Text: fmt.Sprint("q", rng.Intn(300))}
		if rng.Intn(3) == 0 {
			_, hit := checked.GetFresh(key, g)
			if _, hit2 := put.GetFresh(key, g); hit != hit2 {
				t.Fatalf("op %d: lookups of %v disagree", i, key)
			}
			continue
		}
		n := 500 + rng.Intn(4000)
		yes := checked.Admits(key, bodyAnswer(0, 0), n)
		if yes && !checked.Put(key, bodyAnswer(n, 0)) {
			t.Fatalf("op %d: Put refused what Admits admitted", i)
		}
		if stored := put.Put(key, bodyAnswer(n, 0)); stored != yes {
			t.Fatalf("op %d: %v of %d bytes: Admits says %v, Put %v", i, key, n, yes, stored)
		}
		if checked.Bytes() != put.Bytes() || checked.Entries() != put.Entries() {
			t.Fatalf("op %d: the caches hold %d/%d and %d/%d bytes/entries", i, checked.Bytes(), checked.Entries(), put.Bytes(), put.Entries())
		}
		if yes {
			admitted++
		}
	}
	if admitted == 0 || put.Evictions() == 0 {
		t.Fatalf("%d admitted, %d evictions: the sequence never filled the cache", admitted, put.Evictions())
	}
}

// TestAnswerCacheAdmissionConcurrent: fills, checks and lookups from many
// goroutines (run under -race) keep the cache within its budget.
func TestAnswerCacheAdmissionConcurrent(t *testing.T) {
	g := rdf.NewGraph()
	c := NewAnswerCache(20_000, 0, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 500; i++ {
				key := Key{Text: fmt.Sprint("q", rng.Intn(64))}
				switch n := 200 + rng.Intn(3000); rng.Intn(3) {
				case 0:
					c.GetFresh(key, g)
				case 1:
					if c.Admits(key, bodyAnswer(0, 0), n) {
						c.Put(key, bodyAnswer(n, 0))
					}
				default:
					c.Put(key, bodyAnswer(n, 0))
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Bytes() > 20_000 || c.Entries() == 0 {
		t.Fatalf("%d bytes in %d entries after the race, budget 20 000", c.Bytes(), c.Entries())
	}
}

// ---- Admission ----

func TestAdmissionGateAndQueue(t *testing.T) {
	a := NewAdmission(1, 1)
	rel1, err := a.Acquire(context.Background(), false)
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
		rel2, err := a.Acquire(context.Background(), false)
		got2 <- err
		if err == nil {
			rel2()
		}
	}()
	<-started
	waitFor(t, func() bool { return a.Waiting() == 1 })

	_, err3 := a.Acquire(context.Background(), false)
	if err3 == nil || err3.Reason != ReasonQueueFull {
		t.Fatalf("overflow: %+v, want queue_full", err3)
	}
	if err3.RetryAfter != time.Second {
		t.Fatalf("queue_full RetryAfter = %v, want 1s", err3.RetryAfter)
	}

	rel1()
	if err := <-got2; err != nil {
		t.Fatalf("queued request must be admitted after release: %v", err)
	}
	waitFor(t, func() bool { return a.Inflight() == 0 && a.Waiting() == 0 })
}

func TestAdmissionDrainingNoQueue(t *testing.T) {
	a := NewAdmission(1, 8)
	rel, err := a.Acquire(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	_, derr := a.Acquire(context.Background(), true)
	if derr == nil || derr.Reason != ReasonDraining || derr.RetryAfter != 2*time.Second {
		t.Fatalf("draining acquire with busy gate = %+v, want draining rejection with a 2s RetryAfter", derr)
	}
	if a.Waiting() != 0 {
		t.Fatalf("Waiting = %d, a draining gate must not queue", a.Waiting())
	}
}

// TestAdmissionQueuedDeadline: a queued waiter whose context ends leaves
// with deadline and a 1s RetryAfter, and gives its queue position back.
func TestAdmissionQueuedDeadline(t *testing.T) {
	a := NewAdmission(1, 4)
	rel, err := a.Acquire(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan *AdmitError, 1)
	go func() {
		rel, err := a.Acquire(ctx, false)
		if err == nil {
			rel()
		}
		got <- err
	}()
	waitFor(t, func() bool { return a.Waiting() == 1 })
	cancel()
	derr := <-got
	if derr == nil || derr.Reason != ReasonDeadline || derr.RetryAfter != time.Second {
		t.Fatalf("cancelled waiter = %+v, want deadline with a 1s RetryAfter", derr)
	}
	rel()
	if a.Inflight() != 0 || a.Waiting() != 0 {
		t.Fatalf("Inflight/Waiting = %d/%d, want 0/0", a.Inflight(), a.Waiting())
	}
}

// TestAdmissionDeadlineUnmeetable: a waiter whose deadline passes before a
// slot frees leaves with deadline and a 1s RetryAfter, without a slot.
func TestAdmissionDeadlineUnmeetable(t *testing.T) {
	a := NewAdmission(1, 8)
	rel, err := a.Acquire(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, derr := a.Acquire(ctx, false)
	if derr == nil || derr.Reason != ReasonDeadline || derr.RetryAfter != time.Second {
		t.Fatalf("unmeetable deadline = %+v, want deadline rejection with a 1s RetryAfter", derr)
	}
	if a.Inflight() != 1 || a.Waiting() != 0 {
		t.Fatalf("Inflight/Waiting = %d/%d, want 1/0", a.Inflight(), a.Waiting())
	}
}

func TestAdmissionNil(t *testing.T) {
	var a *Admission
	if a := NewAdmission(0, 4); a != nil {
		t.Fatal("maxConcurrent<=0 must return nil")
	}
	rel, err := a.Acquire(context.Background(), true)
	if err != nil {
		t.Fatalf("nil gate must admit: %v", err)
	}
	rel()
	if a.Inflight() != 0 || a.Waiting() != 0 {
		t.Fatal("nil gate accessors must return zero")
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
