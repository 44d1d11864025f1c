package facet

import (
	"math"
	"slices"
	"sort"

	"rdfanalytics/internal/rdf"
)

// Bucket is one interval of a numeric facet: [Lo, Hi) except the last
// bucket, which is closed. Count is the number of extension members whose
// value falls inside.
type Bucket struct {
	Lo, Hi float64
	Count  int
}

// Contains reports whether v falls in the bucket (last=true closes Hi).
func (b Bucket) Contains(v float64, last bool) bool {
	if last {
		return v >= b.Lo && v <= b.Hi
	}
	return v >= b.Lo && v < b.Hi
}

// NumericBuckets partitions the numeric values of facet p over the state's
// extension into n equal-width buckets with counts — the data behind the
// range-filter form of Example 3 (§5.1). Entities with several values count
// once per distinct bucket. Returns nil when fewer than two distinct
// numeric values exist (a plain value facet serves better then).
func (m *Model) NumericBuckets(s *State, p rdf.Term, n int) []Bucket {
	if n <= 0 {
		n = 5
	}
	r := m.valueRuns(m.idsOf(s.Ext), p)
	// One parse per distinct value; NaN marks the non-numeric ones.
	vals := make([]float64, len(r.objects))
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, o := range r.objects {
		v, ok := o.Float()
		if ok {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		} else {
			v = math.NaN()
		}
		vals[i] = v
	}
	if !(lo < hi) { // fewer than two distinct numeric values
		return nil
	}
	width := (hi - lo) / float64(n)
	buckets := make([]Bucket, n)
	for i := range buckets {
		buckets[i] = Bucket{Lo: lo + float64(i)*width, Hi: lo + float64(i+1)*width}
	}
	buckets[n-1].Hi = hi
	hits := make([]entityHit, 0, len(r.subjects))
	for i, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		idx := int((v - lo) / width)
		if idx >= n {
			idx = n - 1
		}
		for _, e := range r.run(i) {
			hits = append(hits, hit(e, idx))
		}
	}
	for _, h := range distinctHits(hits) {
		buckets[h.group()].Count++
	}
	return buckets
}

// entityHit is one (entity, group) pair — group being a bucket index or a
// year — packed into an integer, so that counting each pair once is an
// in-place sort instead of a map keyed on boxed pairs.
type entityHit uint64

func hit(e rdf.ID, group int) entityHit { return entityHit(e)<<32 | entityHit(uint32(group)) }

func (h entityHit) group() int { return int(int32(h)) }

// distinctHits sorts hits and drops the duplicates, in place.
func distinctHits(hits []entityHit) []entityHit {
	slices.Sort(hits)
	return slices.Compact(hits)
}

// ClickBucket restricts the state to entities whose p-value falls in the
// bucket: two range conditions in one transition.
func (m *Model) ClickBucket(s *State, p rdf.Term, b Bucket, last bool) *State {
	lo := rdf.NewDecimal(b.Lo)
	hi := rdf.NewDecimal(b.Hi)
	s2 := m.ClickRange(s, Path{{P: p}}, ">=", lo)
	if last {
		return m.ClickRange(s2, Path{{P: p}}, "<=", hi)
	}
	return m.ClickRange(s2, Path{{P: p}}, "<", hi)
}

// DateBuckets groups the date values of facet p by year, returning
// (year, count) pairs sorted by year — the calendar drill-down the
// transform button's YEAR/MONTH decomposition supports.
func (m *Model) DateBuckets(s *State, p rdf.Term) []ValueCount {
	r := m.valueRuns(m.idsOf(s.Ext), p)
	var hits []entityHit
	for i, o := range r.objects {
		tm, ok := o.Time()
		if !ok {
			continue
		}
		for _, e := range r.run(i) {
			hits = append(hits, hit(e, tm.Year()))
		}
	}
	counts := map[int]int{}
	for _, h := range distinctHits(hits) {
		counts[h.group()]++
	}
	years := make([]int, 0, len(counts))
	for y := range counts {
		years = append(years, y)
	}
	sort.Ints(years)
	out := make([]ValueCount, len(years))
	for i, y := range years {
		out[i] = ValueCount{Value: rdf.NewInteger(int64(y)), Count: counts[y]}
	}
	return out
}
