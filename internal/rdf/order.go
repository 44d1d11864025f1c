package rdf

import (
	"cmp"
	"iter"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"time"
)

// OrderKey is what Term.Less reads from one term, computed once: the term
// itself (kind and the lexical tiebreak) plus its numeric value or temporal
// instant when Less would compare on them. Compare on two keys orders
// exactly as Less on their terms, so a sort decorates n terms once instead
// of re-parsing two lexical forms per comparison.
type OrderKey struct {
	term Term
	valueKey
}

// valueKey is what Less compares after the kind and before the lexical
// tiebreak: the number or instant of a term whose value space orders it.
// word holds the number's float64 bits or the instant's Unix seconds; nsec
// holds the instant's nanoseconds, or keyNumber, or keyLexical for a term
// with neither.
type valueKey struct {
	word uint64
	nsec int32
}

const (
	keyNumber  = -1
	keyLexical = -2
)

func valueKeyOf(t Term) valueKey {
	if f, ok := t.Float(); ok {
		return valueKey{math.Float64bits(f), keyNumber}
	}
	if t.IsTemporal() {
		if at, ok := t.Time(); ok {
			return valueKey{uint64(at.Unix()), int32(at.Nanosecond())}
		}
	}
	return valueKey{nsec: keyLexical}
}

// space is keyNumber, keyLexical, or 0 for an instant.
func (k valueKey) space() int32 { return min(k.nsec, 0) }

// compare orders the keys of two terms of one kind in the value space they
// share; 0 when they share none leaves the order to the lexical tiebreak.
func (k valueKey) compare(o valueKey) int {
	switch {
	case k.space() != o.space() || k.nsec == keyLexical:
		return 0
	case k.nsec == keyNumber:
		return cmp.Compare(math.Float64frombits(k.word), math.Float64frombits(o.word))
	}
	if c := cmp.Compare(int64(k.word), int64(o.word)); c != 0 {
		return c
	}
	return cmp.Compare(k.nsec, o.nsec)
}

// CompareValues compares a and b in the value space they share — both
// numbers, or both xsd:date / xsd:dateTime instants — and reports false
// when they share none.
func CompareValues(a, b Term) (int, bool) {
	ka, kb := valueKeyOf(a), valueKeyOf(b)
	if ka.nsec == keyLexical || ka.space() != kb.space() {
		return 0, false
	}
	return ka.compare(kb), true
}

// compareLexical is Less's tiebreak: value, datatype, language.
func compareLexical(t, u Term) int {
	if c := strings.Compare(t.Value, u.Value); c != 0 {
		return c
	}
	if c := strings.Compare(t.Datatype, u.Datatype); c != 0 {
		return c
	}
	return strings.Compare(t.Lang, u.Lang)
}

// OrderKey computes the ordering key of t.
func (t Term) OrderKey() OrderKey { return OrderKey{t, valueKeyOf(t)} }

// Term returns the term the key was computed from.
func (k OrderKey) Term() Term { return k.term }

// Compare returns -1 when k's term is Less than o's, +1 when o's is Less
// than k's, and 0 only for identical terms. Term.Less is the reference
// definition; the property test in order_test.go holds the two together.
func (k OrderKey) Compare(o OrderKey) int {
	if k.term.Kind != o.term.Kind {
		return cmp.Compare(k.term.Kind, o.term.Kind)
	}
	if c := k.valueKey.compare(o.valueKey); c != 0 {
		return c
	}
	return compareLexical(k.term, o.term)
}

// IDKey is OrderKey for a term a TermView decodes, kept as its ID in 16
// bytes: the number or instant is parsed once, and the kind and the lexical
// tiebreak are read through the view when a comparison reaches them. It
// lets a caller order dictionary IDs without building a term per ID
// (TermView.Key, TermView.Compare).
type IDKey struct {
	word uint64
	nsec int32
	ID   ID
}

// Key computes the ordering key of id's term.
func (v *TermView) Key(id ID) IDKey {
	k := valueKeyOf(v.Term(id))
	return IDKey{k.word, k.nsec, id}
}

// Compare orders two keys of the view exactly as OrderKey.Compare orders
// their terms: by kind, in a shared value space, then by value, datatype
// and language, read from the view's columns in place.
func (v *TermView) Compare(a, b IDKey) int {
	if a.ID == b.ID {
		return 0
	}
	sa, sb := &v.shapes[v.shapeOf[a.ID-1]], &v.shapes[v.shapeOf[b.ID-1]]
	if sa.Kind != sb.Kind {
		return cmp.Compare(sa.Kind, sb.Kind)
	}
	if c := (valueKey{a.word, a.nsec}).compare(valueKey{b.word, b.nsec}); c != 0 {
		return c
	}
	if c := strings.Compare(form(v.pages, v.at[a.ID-1]), form(v.pages, v.at[b.ID-1])); c != 0 {
		return c
	}
	if c := strings.Compare(sa.Datatype, sb.Datatype); c != 0 {
		return c
	}
	return strings.Compare(sa.Lang, sb.Lang)
}

// Least returns the k least of ids in term order, ascending, without
// building a term for the others: a bounded max-heap of order keys,
// O(n log k).
func (v *TermView) Least(ids iter.Seq[ID], k int) []ID {
	if k <= 0 {
		return nil
	}
	h := &leastKeys{view: *v, keys: make([]IDKey, 0, k)}
	for id := range ids {
		h.offer(id)
	}
	slices.SortFunc(h.keys, h.view.Compare)
	out := make([]ID, len(h.keys))
	for i, key := range h.keys {
		out[i] = key.ID
	}
	return out
}

// leastKeys is Least's bounded max-heap: keys[0] is the greatest key kept,
// and cap(keys) is how many it keeps. It holds a copy of the view, so the
// loop over the caller's IDs captures no pointer to the caller's view, which
// can then stay on the caller's stack.
type leastKeys struct {
	view TermView
	keys []IDKey
}

// offer keeps id's key if it is among the least seen so far.
func (h *leastKeys) offer(id ID) {
	k := cap(h.keys)
	if len(h.keys) < k {
		if h.keys = append(h.keys, h.view.Key(id)); len(h.keys) == k {
			for i := k/2 - 1; i >= 0; i-- {
				h.down(i)
			}
		}
	} else if key := h.view.Key(id); h.view.Compare(key, h.keys[0]) < 0 {
		h.keys[0] = key
		h.down(0)
	}
}

func (h *leastKeys) greater(i, j int) bool { return h.view.Compare(h.keys[i], h.keys[j]) > 0 }

// down restores the heap below i.
func (h *leastKeys) down(i int) {
	for c := 2*i + 1; c < len(h.keys); i, c = c, 2*c+1 {
		if c+1 < len(h.keys) && h.greater(c+1, c) {
			c++
		}
		if !h.greater(c, i) {
			return
		}
		h.keys[i], h.keys[c] = h.keys[c], h.keys[i]
	}
}

// SortTerms sorts ts in Term.Less order, parsing each lexical form once.
func SortTerms(ts []Term) {
	keys := make([]OrderKey, len(ts))
	for i, t := range ts {
		keys[i] = t.OrderKey()
	}
	slices.SortFunc(keys, OrderKey.Compare)
	for i, k := range keys {
		ts[i] = k.term
	}
}

// parseTemporal parses the four lexical shapes Term.Time accepts —
// date or dateTime, each with or without a zone ("Z" or ±hh:mm) — in one
// pass and without allocating, on success and on garbage alike. It accepts
// and rejects exactly what time.Parse does for the layouts
// "2006-01-02T15:04:05Z07:00", "2006-01-02T15:04:05", "2006-01-02Z07:00"
// and "2006-01-02" (one- or two-digit hour, optional fractional seconds
// after '.' or ',', offsets up to 24:60), which a shape admits at most one
// of; the differential test in order_test.go pins that.
func parseTemporal(v string) (time.Time, bool) {
	// Date: yyyy-mm-dd.
	if len(v) < 10 || v[4] != '-' || v[7] != '-' {
		return time.Time{}, false
	}
	year, ok := digits(v[0:4])
	month, ok2 := digits(v[5:7])
	day, ok3 := digits(v[8:10])
	if !ok || !ok2 || !ok3 || month < 1 || month > 12 {
		return time.Time{}, false
	}
	v = v[10:]
	// Time of day: Th:mm:ss or Thh:mm:ss, then an optional fraction.
	var hour, minute, sec, nsec int
	if len(v) > 0 && v[0] == 'T' {
		n := 2
		if !isDigit(v, 2) {
			n = 1
		}
		if hour, ok = digits(v[1:min(1+n, len(v))]); !ok || hour > 23 {
			return time.Time{}, false
		}
		v = v[1+n:]
		if len(v) < 6 || v[0] != ':' || v[3] != ':' {
			return time.Time{}, false
		}
		minute, ok = digits(v[1:3])
		sec, ok2 = digits(v[4:6])
		if !ok || !ok2 || minute > 59 || sec > 59 {
			return time.Time{}, false
		}
		v = v[6:]
		if len(v) >= 2 && (v[0] == '.' || v[0] == ',') && isDigit(v, 1) {
			n := 1
			for ; isDigit(v, n); n++ {
				if n <= 9 {
					nsec = nsec*10 + int(v[n]-'0')
				}
			}
			for scale := n; scale <= 9; scale++ {
				nsec *= 10
			}
			v = v[n:]
		}
	}
	// The day is validated against the month only now, as time.Parse does.
	if day < 1 || day > time.Date(year, time.Month(month)+1, 0, 0, 0, 0, 0, time.UTC).Day() {
		return time.Time{}, false
	}
	loc := time.UTC
	switch {
	case v == "" || v == "Z":
	case len(v) == 6 && (v[0] == '+' || v[0] == '-') && v[3] == ':':
		hh, ok := digits(v[1:3])
		mm, ok2 := digits(v[4:6])
		if !ok || !ok2 || hh > 24 || mm > 60 {
			return time.Time{}, false
		}
		offset := hh*60 + mm
		if v[0] == '-' {
			offset = -offset
		}
		loc = fixedZone(offset)
	default:
		return time.Time{}, false
	}
	return time.Date(year, time.Month(month), day, hour, minute, sec, nsec, loc), true
}

func isDigit(s string, i int) bool { return i < len(s) && '0' <= s[i] && s[i] <= '9' }

// digits parses a non-empty all-digit string (at most four digits here).
func digits(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		if !isDigit(s, i) {
			return 0, false
		}
		n = n*10 + int(s[i]-'0')
	}
	return n, true
}

// maxZoneMinutes is the largest offset parseTemporal accepts (24:60).
const maxZoneMinutes = 24*60 + 60

// fixedZones caches one Location per whole-minute UTC offset, so a zoned
// literal parses without allocating after the first of its offset.
var fixedZones [2*maxZoneMinutes + 1]atomic.Pointer[time.Location]

func fixedZone(offsetMinutes int) *time.Location {
	if offsetMinutes == 0 {
		return time.UTC
	}
	slot := &fixedZones[offsetMinutes+maxZoneMinutes]
	if loc := slot.Load(); loc != nil {
		return loc
	}
	loc := time.FixedZone("", offsetMinutes*60)
	slot.Store(loc)
	return loc
}
