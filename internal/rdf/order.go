package rdf

import (
	"cmp"
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
	term  Term
	value orderValue
	num   float64
	at    time.Time
}

// orderValue says which value space, if any, Less compares a term in before
// it falls through to the lexical tiebreak.
type orderValue uint8

const (
	orderLexical orderValue = iota
	orderNumeric
	orderTemporal
)

// OrderKey computes the ordering key of t.
func (t Term) OrderKey() OrderKey {
	k := OrderKey{term: t}
	if f, ok := t.Float(); ok {
		k.value, k.num = orderNumeric, f
	} else if t.IsTemporal() {
		if at, ok := t.Time(); ok {
			k.value, k.at = orderTemporal, at
		}
	}
	return k
}

// Term returns the term the key was computed from.
func (k OrderKey) Term() Term { return k.term }

// Compare returns -1 when k's term is Less than o's, +1 when o's is Less
// than k's, and 0 only for identical terms. Term.Less is the reference
// definition; the property test in order_test.go holds the two together.
func (k OrderKey) Compare(o OrderKey) int {
	t, u := k.term, o.term
	if t.Kind != u.Kind {
		return cmp.Compare(t.Kind, u.Kind)
	}
	if k.value == o.value {
		switch k.value {
		case orderNumeric:
			if k.num != o.num {
				return cmp.Compare(k.num, o.num)
			}
		case orderTemporal:
			if c := k.at.Compare(o.at); c != 0 {
				return c
			}
		}
	}
	if c := strings.Compare(t.Value, u.Value); c != 0 {
		return c
	}
	if c := strings.Compare(t.Datatype, u.Datatype); c != 0 {
		return c
	}
	return strings.Compare(t.Lang, u.Lang)
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
