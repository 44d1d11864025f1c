package resilience

import (
	"hash/maphash"
	"io"
	"sync/atomic"
	"time"

	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/rdf"
)

// Answer is one response to a /sparql SELECT or ASK or to an analytic run,
// cached or shared by the waiters of one execution: its body plus the
// metadata needed to replay it faithfully and to decide freshness. Version is the graph version the
// answer was computed against and Reads what its query read of the graph
// (Fresh); When is the fill time, used to bound how stale an answer a
// max-stale request may get.
type Answer struct {
	// Body is the rendered response. An answer the cache will not keep
	// (AnswerCache.Admits) has none: each waiter streams it from Source.
	Body          []byte
	Source        Source
	ContentType   string
	Status        int
	Rows          int
	Shape         string // fingerprint text, for per-shape metrics on replay
	FingerprintID string // the filler's ID of Shape, so a replay hashes nothing
	TraceID       string // trace retained for the execution that filled this entry
	Version       uint64
	Reads         rdf.ReadSet
	When          time.Time
	// Frame is a run's Answer Frame, nil for /sparql: the body renders it, the
	// entry holds its table, and every session served the entry adopts it.
	Frame *hifun.Answer
}

// Source renders an answer's JSON body (a SELECT's sparql.Table, a run's
// frame): its size, counted first, then the body in one slice of that size or
// through the caller's chunk, written to w each time it fills.
type Source interface {
	JSONSize() int
	JSON() []byte
	WriteJSON(w io.Writer, chunk []byte) error
}

// Key names one answer-cache entry: a text within a namespace. A /sparql
// answer is keyed by its raw query text in the empty namespace; an analytic
// run by the session's run key in a namespace of its own, so no query text
// can name a run's entry. The key is compared as it is, with no string built
// for a lookup.
type Key struct {
	Namespace string
	Text      string
}

// Fresh reports whether a is the answer g gives now: no triple of a
// predicate a read changed after the version a was computed against. It is
// the one freshness rule — of a lookup, of a fill that straddled a write,
// and (through the same read version) of singleflight's join.
func (a *Answer) Fresh(g *rdf.Graph) bool { return g.ReadVersion(a.Reads) <= a.Version }

// AnswerCache is the answer cache: a byte-bounded LRU of rendered responses
// keyed by Key, checked for freshness (Answer.Fresh) at lookup time rather
// than purged by writes: a write outdates only the entries that read a
// predicate it changed. The raw text, not the structural
// fingerprint, is the key: the fingerprint normalizes constants, datatypes
// and timezones away, and the text decides the fingerprint anyway. A nil
// *AnswerCache disables caching: every method is a safe no-op/miss.
//
// A first-seen answer never evicts (TinyLFU's doorkeeper, reduced to one
// check): an answer is stored if it fits in the free space, if its key is
// resident (an outdated entry too), or if its key was refused before. A
// refusal leaves the key's hash in refused, a direct-mapped table of
// refusedSlots hashes, so a key asked for twice while the cache is full gets
// in on its second miss — until another refused key takes its slot. The
// table is made by the first refusal: a cache that never fills has none.
type AnswerCache struct {
	lru     *SizedLRU[Key, *Answer]
	seed    maphash.Seed
	refused atomic.Pointer[refusedTable]
}

// refusedTable holds a refused key's hash | 1 in slot hash % refusedSlots;
// 0 is an empty slot. It is 32 KiB.
type refusedTable [refusedSlots]atomic.Uint64

const refusedSlots = 4096

// entryOverhead approximates the per-entry bookkeeping cost (struct, map
// slot, list pointers, key) added to Body capacity for byte accounting.
const entryOverhead = 256

// NewAnswerCache builds a cache bounded to maxBytes of rendered responses.
// onEvict (may be nil) fires for every size-pressure eviction, for metrics.
// maxBytes <= 0 returns nil (caching disabled). The second parameter is
// deprecated and ignored; it goes once no caller passes it.
func NewAnswerCache(maxBytes int64, _ time.Duration, onEvict func(key Key, size int64)) *AnswerCache {
	if maxBytes <= 0 {
		return nil
	}
	return &AnswerCache{lru: NewSizedLRU[Key, *Answer](maxBytes, onEvict), seed: maphash.MakeSeed()}
}

// Enabled reports whether the cache can hold anything.
func (c *AnswerCache) Enabled() bool { return c != nil }

// GetFresh returns a fresh hit: the entry for key, if it is Fresh in g.
// An outdated entry is left resident (it may still satisfy a max-stale
// lookup) and reported as a miss.
func (c *AnswerCache) GetFresh(key Key, g *rdf.Graph) (*Answer, bool) {
	if c == nil {
		return nil, false
	}
	a, ok := c.lru.Get(key)
	if !ok || !a.Fresh(g) {
		return nil, false
	}
	return a, true
}

// Get returns the entry for key if it was computed against exactly version.
//
// Deprecated: it serves Lookup; the read path uses GetFresh.
func (c *AnswerCache) Get(key Key, version uint64) (*Answer, bool) {
	if c == nil {
		return nil, false
	}
	a, ok := c.lru.Get(key)
	if !ok || a.Version != version {
		return nil, false
	}
	return a, true
}

// GetStale returns a hit regardless of freshness provided the entry was
// filled within the staleness window — the read path of a request that
// carries Cache-Control: max-stale. window <= 0 disables stale serving.
func (c *AnswerCache) GetStale(key Key, now time.Time, window time.Duration) (*Answer, bool) {
	if c == nil || window <= 0 {
		return nil, false
	}
	a, ok := c.lru.Get(key)
	if !ok || now.Sub(a.When) > window {
		return nil, false
	}
	return a, true
}

// Put stores a rendered answer if the cache admits it (see AnswerCache) and
// reports whether it did; a refusal is remembered as Admits remembers it. The
// body is counted at its capacity, which is what the entry holds. The
// caller is responsible for checking that no predicate the answer read
// changed during execution (Answer.Fresh) before filling.
func (c *AnswerCache) Put(key Key, a *Answer) bool {
	if c == nil || a == nil {
		return false
	}
	size := entrySize(key, a, cap(a.Body))
	if !c.admit(key, size) {
		return false
	}
	c.lru.Put(key, a, size)
	return true
}

// Admits reports whether Put would store a, given a body of bodyLen bytes,
// under key — the check made before the body is rendered. A no is a refusal
// and is remembered: the key's next answer is admitted.
func (c *AnswerCache) Admits(key Key, a *Answer, bodyLen int) bool {
	return c != nil && c.admit(key, entrySize(key, a, bodyLen))
}

// entrySize is what an answer with a body of bodyLen bytes accounts for
// under key: the body, a run's frame table and the bookkeeping.
func entrySize(key Key, a *Answer, bodyLen int) int64 {
	size := int64(bodyLen+len(a.ContentType)+len(key.Namespace)+len(key.Text)) + entryOverhead
	if a.Frame != nil {
		size += a.Frame.Table.Bytes()
	}
	return size
}

// admit is the admission rule: an entry of size bytes is stored under key if
// it fits in the free space, if key is resident, or if key was refused
// before; anything else is refused, and the refusal recorded. Nothing larger
// than the whole budget is stored. The checks read the LRU one at a time, so
// concurrent fills may between them take space another one counted on.
func (c *AnswerCache) admit(key Key, size int64) bool {
	if size > c.lru.MaxBytes() {
		return false
	}
	if c.lru.Bytes()+size <= c.lru.MaxBytes() {
		return true
	}
	if _, ok := c.lru.Get(key); ok {
		return true
	}
	h := maphash.Comparable(c.seed, key)
	refused := c.refused.Load()
	if refused == nil {
		c.refused.CompareAndSwap(nil, new(refusedTable))
		refused = c.refused.Load()
	}
	slot := &refused[h%refusedSlots]
	if slot.Load() == h|1 {
		return true
	}
	slot.Store(h | 1)
	return false
}

// CacheKey returns the raw query text, the /sparql key's Text; the
// fingerprint ID no longer takes part in the key.
//
// Deprecated: key a query by Key{Text: raw}. CacheKey, Lookup and Store
// remain for callers that still name /sparql entries by a string; they go
// once none does.
func CacheKey(_, rawQuery string) string { return rawQuery }

// Lookup is Get of the /sparql entry for text.
//
// Deprecated: use Get.
func (c *AnswerCache) Lookup(text string, version uint64) (*Answer, bool) {
	return c.Get(Key{Text: text}, version)
}

// Store is Put of the /sparql entry for text.
//
// Deprecated: use Put.
func (c *AnswerCache) Store(text string, a *Answer) { c.Put(Key{Text: text}, a) }

// Bytes returns the accounted size of resident entries.
func (c *AnswerCache) Bytes() int64 {
	if c == nil {
		return 0
	}
	return c.lru.Bytes()
}

// Entries returns the number of resident entries.
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

// Purge drops every entry.
func (c *AnswerCache) Purge() {
	if c == nil {
		return
	}
	c.lru.Purge()
}
