// Package resilience is the server-wide overload-protection layer: a
// bounded, byte-accounted answer cache with graph-version invalidation, a
// singleflight group that collapses concurrent identical queries into one
// execution, and an admission gate (a semaphore with a bounded wait queue).
// Everything is safe for concurrent use; internal/server wires the pieces
// into the /sparql and /api/run paths.
package resilience

import (
	"sync"
)

// lruEntry is one resident cache entry; prev/next thread the recency list
// (head = most recent).
type lruEntry[K comparable, V any] struct {
	key        K
	val        V
	size       int64
	prev, next *lruEntry[K, V]
}

// SizedLRU is a concurrency-safe LRU keyed by any comparable K with byte-size
// accounting: every entry carries an explicit size, the cache evicts from
// the cold end whenever the total exceeds maxBytes, and an entry larger
// than the whole budget is refused outright. A nil *SizedLRU is a valid
// always-empty cache (Get misses, Put is a no-op), so callers can disable
// caching by construction instead of branching.
type SizedLRU[K comparable, V any] struct {
	mu        sync.Mutex
	maxBytes  int64
	bytes     int64
	entries   map[K]*lruEntry[K, V]
	head      *lruEntry[K, V] // most recently used
	tail      *lruEntry[K, V] // least recently used
	evictions uint64
	onEvict   func(key K, size int64)
}

// NewSizedLRU builds a cache bounded to maxBytes. onEvict (may be nil) is
// called, outside any hot path but under the cache lock, for every entry
// removed to make room — not for explicit Delete or Purge.
func NewSizedLRU[K comparable, V any](maxBytes int64, onEvict func(key K, size int64)) *SizedLRU[K, V] {
	if maxBytes <= 0 {
		return nil
	}
	return &SizedLRU[K, V]{
		maxBytes: maxBytes,
		entries:  map[K]*lruEntry[K, V]{},
		onEvict:  onEvict,
	}
}

// Get returns the entry for key, bumping its recency.
func (c *SizedLRU[K, V]) Get(key K) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return zero, false
	}
	c.moveToFront(e)
	return e.val, true
}

// Put inserts or replaces the entry for key. Entries whose size exceeds the
// whole budget are refused (and an existing entry under the key is dropped:
// the caller declared the new value authoritative and the old one stale).
func (c *SizedLRU[K, V]) Put(key K, val V, size int64) {
	if c == nil {
		return
	}
	if size < 0 {
		size = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.removeLocked(e)
	}
	if size > c.maxBytes {
		return
	}
	e := &lruEntry[K, V]{key: key, val: val, size: size}
	c.entries[key] = e
	c.pushFront(e)
	c.bytes += size
	for c.bytes > c.maxBytes && c.tail != nil {
		victim := c.tail
		c.removeLocked(victim)
		c.evictions++
		if c.onEvict != nil {
			c.onEvict(victim.key, victim.size)
		}
	}
}

// Delete removes the entry for key, if present.
func (c *SizedLRU[K, V]) Delete(key K) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.removeLocked(e)
	}
}

// Purge drops every entry.
func (c *SizedLRU[K, V]) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[K]*lruEntry[K, V]{}
	c.head, c.tail, c.bytes = nil, nil, 0
}

// Len returns the number of resident entries.
func (c *SizedLRU[K, V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the accounted size of all resident entries.
func (c *SizedLRU[K, V]) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Evictions returns how many entries were evicted to make room (lifetime).
func (c *SizedLRU[K, V]) Evictions() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// MaxBytes returns the configured budget (0 for a nil cache).
func (c *SizedLRU[K, V]) MaxBytes() int64 {
	if c == nil {
		return 0
	}
	return c.maxBytes
}

// ---- intrusive recency list (callers hold c.mu) ----

func (c *SizedLRU[K, V]) pushFront(e *lruEntry[K, V]) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *SizedLRU[K, V]) moveToFront(e *lruEntry[K, V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *SizedLRU[K, V]) unlink(e *lruEntry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *SizedLRU[K, V]) removeLocked(e *lruEntry[K, V]) {
	c.unlink(e)
	delete(c.entries, e.key)
	c.bytes -= e.size
}
