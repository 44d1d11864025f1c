package resilience

import (
	"sync"
	"time"
)

// Answer is one cached /sparql response: the fully rendered body plus the
// metadata needed to replay it faithfully and to decide freshness. Version
// is the graph version the answer was computed against; When is the fill
// time, used to bound how stale a degraded-mode hit may be.
type Answer struct {
	Body        []byte
	ContentType string
	Status      int
	Rows        int
	Shape       string // fingerprint ID, for per-shape metrics on replay
	TraceID     string // trace retained for the execution that filled this entry
	Version     uint64
	When        time.Time
}

// negEntry is a remembered parse/plan failure. Such errors depend only on
// the query text (never on graph contents), so they carry no version — just
// a short TTL so a fixed grammar bug or lifted limit is picked up quickly.
type negEntry struct {
	status int
	reason string
	msg    string
	when   time.Time
}

// AnswerCache is the fingerprint answer cache: a byte-bounded LRU of
// rendered responses keyed by FingerprintID × raw query text (the raw text
// keeps constants, datatypes and timezones distinct — the fingerprint alone
// normalizes them away, see CacheKey), invalidated by graph-version
// comparison at lookup time rather than by eager purging, plus a small
// negative cache for parse errors. A nil *AnswerCache disables caching:
// every method is a safe no-op/miss.
type AnswerCache struct {
	lru *SizedLRU[*Answer]

	negMu  sync.Mutex
	neg    map[string]negEntry
	negTTL time.Duration
}

// entryOverhead approximates the per-entry bookkeeping cost (struct, map
// slot, list pointers, key) added to Body length for byte accounting.
const entryOverhead = 256

// maxNegEntries bounds the negative cache; parse errors are tiny but the
// key is attacker-controlled query text, so cap the population.
const maxNegEntries = 1024

// DefaultNegativeTTL is how long a remembered parse/plan error is served
// before the query is re-parsed.
const DefaultNegativeTTL = 5 * time.Second

// NewAnswerCache builds a cache bounded to maxBytes of rendered responses.
// negTTL <= 0 selects DefaultNegativeTTL. onEvict (may be nil) fires for
// every size-pressure eviction, for metrics. maxBytes <= 0 returns nil
// (caching disabled).
func NewAnswerCache(maxBytes int64, negTTL time.Duration, onEvict func(key string, size int64)) *AnswerCache {
	if maxBytes <= 0 {
		return nil
	}
	if negTTL <= 0 {
		negTTL = DefaultNegativeTTL
	}
	return &AnswerCache{
		lru:    NewSizedLRU[*Answer](maxBytes, onEvict),
		neg:    map[string]negEntry{},
		negTTL: negTTL,
	}
}

// CacheKey derives the answer-cache key. The structural fingerprint
// normalizes every constant to "$", so two queries differing only in a
// literal, datatype or timezone share a fingerprint; embedding the raw
// query text keeps their answers separate while the fingerprint prefix
// keeps shape-level locality for eviction statistics.
func CacheKey(fingerprintID, rawQuery string) string {
	return fingerprintID + "\x00" + rawQuery
}

// Enabled reports whether the cache can hold anything.
func (c *AnswerCache) Enabled() bool { return c != nil }

// Lookup returns a fresh hit: an entry computed against exactly the current
// graph version. Entries from older versions are left resident (they may
// still satisfy a degraded-mode stale lookup) and reported as a miss.
func (c *AnswerCache) Lookup(key string, version uint64) (*Answer, bool) {
	if c == nil {
		return nil, false
	}
	a, ok := c.lru.Get(key)
	if !ok || a.Version != version {
		return nil, false
	}
	return a, true
}

// LookupStale returns a hit regardless of graph version provided the entry
// was filled within the staleness window — the degraded-mode read path.
// window <= 0 disables stale serving.
func (c *AnswerCache) LookupStale(key string, now time.Time, window time.Duration) (*Answer, bool) {
	if c == nil || window <= 0 {
		return nil, false
	}
	a, ok := c.lru.Get(key)
	if !ok || now.Sub(a.When) > window {
		return nil, false
	}
	return a, true
}

// Store inserts a rendered answer. The caller is responsible for checking
// the graph version did not change during execution before filling.
func (c *AnswerCache) Store(key string, a *Answer) {
	if c == nil || a == nil {
		return
	}
	c.lru.Put(key, a, int64(len(a.Body)+len(a.ContentType)+len(key))+entryOverhead)
}

// LookupNegative returns a remembered parse/plan failure for the query, if
// it is still within TTL.
func (c *AnswerCache) LookupNegative(query string, now time.Time) (status int, reason, msg string, ok bool) {
	if c == nil {
		return 0, "", "", false
	}
	c.negMu.Lock()
	defer c.negMu.Unlock()
	e, found := c.neg[query]
	if !found {
		return 0, "", "", false
	}
	if now.Sub(e.when) > c.negTTL {
		delete(c.neg, query)
		return 0, "", "", false
	}
	return e.status, e.reason, e.msg, true
}

// StoreNegative remembers a parse/plan failure for the query.
func (c *AnswerCache) StoreNegative(query string, status int, reason, msg string, now time.Time) {
	if c == nil {
		return
	}
	c.negMu.Lock()
	defer c.negMu.Unlock()
	if len(c.neg) >= maxNegEntries {
		// Crude but bounded: drop everything expired, and if still full,
		// start over. Parse errors are cheap to recompute.
		for k, e := range c.neg {
			if now.Sub(e.when) > c.negTTL {
				delete(c.neg, k)
			}
		}
		if len(c.neg) >= maxNegEntries {
			c.neg = map[string]negEntry{}
		}
	}
	c.neg[query] = negEntry{status: status, reason: reason, msg: msg, when: now}
}

// Bytes returns the accounted size of resident positive entries.
func (c *AnswerCache) Bytes() int64 {
	if c == nil {
		return 0
	}
	return c.lru.Bytes()
}

// Entries returns the number of resident positive entries.
func (c *AnswerCache) Entries() int {
	if c == nil {
		return 0
	}
	return c.lru.Len()
}

// Evictions returns the lifetime count of size-pressure evictions.
func (c *AnswerCache) Evictions() uint64 {
	if c == nil {
		return 0
	}
	return c.lru.Evictions()
}

// Purge drops every positive and negative entry.
func (c *AnswerCache) Purge() {
	if c == nil {
		return
	}
	c.lru.Purge()
	c.negMu.Lock()
	c.neg = map[string]negEntry{}
	c.negMu.Unlock()
}
