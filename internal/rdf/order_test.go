package rdf

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// layoutsTime is the reference definition of Term.Time: the four layouts
// tried in turn. parseTemporal must accept, reject and read every lexical
// form exactly as it does.
func layoutsTime(v string) (time.Time, bool) {
	for _, layout := range []string{
		"2006-01-02T15:04:05Z07:00",
		"2006-01-02T15:04:05",
		"2006-01-02Z07:00",
		"2006-01-02",
	} {
		if tm, err := time.Parse(layout, v); err == nil {
			return tm, true
		}
	}
	return time.Time{}, false
}

func checkTemporal(t *testing.T, v string) {
	t.Helper()
	want, wantOK := layoutsTime(v)
	got, ok := parseTemporal(v)
	if ok != wantOK {
		t.Fatalf("parseTemporal(%q) ok = %v, time.Parse says %v", v, ok, wantOK)
	}
	if !ok {
		return
	}
	_, wantOff := want.Zone()
	_, gotOff := got.Zone()
	if !got.Equal(want) || gotOff != wantOff ||
		got.Year() != want.Year() || got.YearDay() != want.YearDay() ||
		got.Hour() != want.Hour() || got.Minute() != want.Minute() ||
		got.Second() != want.Second() || got.Nanosecond() != want.Nanosecond() {
		t.Fatalf("parseTemporal(%q) = %v, time.Parse gives %v", v, got, want)
	}
}

var temporalSeeds = []string{
	"2021-06-01", "2021-06-01Z", "2021-06-01+02:00", "2021-06-01-11:30",
	"2021-06-01T10:00:00", "2021-06-01T10:00:00Z", "2021-06-01T12:00:00+02:00",
	"2021-06-01T9:05:07", "2021-06-01T10:00:00.5", "2021-06-01T10:00:00,25Z",
	"2021-06-01T10:00:00.123456789123-05:00", "2021-06-01T10:00:00.+01:00",
	"2020-02-29", "2021-02-29", "2021-04-31", "2021-13-01", "2021-00-10", "2021-01-00",
	"0000-01-01", "9999-12-31T23:59:59.999999999+24:60", "2021-06-01T24:00:00",
	"2021-06-01T10:60:00", "2021-06-01T10:00:60", "2021-06-01+25:00", "2021-06-01+02:61",
	"2021-06-01T10:00:00+0200", "2021-06-01T10:00:00z", "2021-06-01T10:00", "2021-06-01T",
	"2021-6-1", "21-06-01", "+021-06-01", "2021/06/01", "2021-06-01 ", "2021-06-01T10:00:00 Z",
	"2021-06-01T1:2:3", "2021-06-01T10:00:00*02:00", "2021-06-01T10:00:00+02-00", "",
	"not a date", "2021-06-01T10:00:00.5.5", "2021-06-01ZZ", "2021-06-01T10:00:00+2:00",
}

// TestParseTemporalMatchesLayouts mutates the seed forms one byte at a time
// (every position, a pool of the bytes the grammar cares about) and holds
// parseTemporal to the four-layout reference on each.
func TestParseTemporalMatchesLayouts(t *testing.T) {
	const pool = "0123456789-+:.,TZz "
	for _, seed := range temporalSeeds {
		checkTemporal(t, seed)
		for i := 0; i <= len(seed); i++ {
			for _, c := range pool {
				if i < len(seed) {
					checkTemporal(t, seed[:i]+string(c)+seed[i+1:]) // replace
				}
				checkTemporal(t, seed[:i]+string(c)+seed[i:]) // insert
			}
			if i < len(seed) {
				checkTemporal(t, seed[:i]+seed[i+1:]) // delete
			}
		}
	}
}

func FuzzParseTemporal(f *testing.F) {
	for _, s := range temporalSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) { checkTemporal(t, v) })
}

// orderCorpus mixes every kind of term Less distinguishes: integers,
// decimals and doubles that are numerically equal under different lexical
// forms, unparseable numerics, dates and dateTimes with and without
// offsets (same instant, different forms), date-lookalike plain strings,
// language-tagged literals, IRIs and blank nodes.
func orderCorpus() []Term {
	ts := []Term{
		NewInteger(2), NewInteger(10), NewInteger(-3), NewTyped("010", XSDInteger),
		NewDecimal(2), NewTyped("2.0", XSDDecimal), NewDecimal(9.5), NewDouble(1e3),
		NewTyped("1000", XSDInt), NewTyped("abc", XSDInteger), NewTyped("NaN", XSDDouble),
		NewTyped("INF", XSDDouble), NewTyped("-0", XSDDecimal), NewInteger(0), NewTyped(" 7 ", XSDInteger),
		NewTyped("2021-06-01", XSDDate), NewTyped("2021-06-01Z", XSDDate), NewTyped("2021-05-31+02:00", XSDDate),
		NewTyped("2021-06-01T10:00:00Z", XSDDateTime), NewTyped("2021-06-01T12:00:00+02:00", XSDDateTime),
		NewTyped("2021-06-01T10:00:00", XSDDateTime), NewTyped("2021-06-01T00:00:00", XSDDateTime),
		NewTyped("2021-06-01T09:59:59.5-00:30", XSDDateTime), NewTyped("yesterday", XSDDate),
		NewTyped("2021-13-40", XSDDate), NewString("2021-06-01"), NewString("2021-06-01T10:00:00Z"),
		NewString("10"), NewString("9"), NewString(""), NewLangString("chat", "fr"), NewLangString("chat", "en"),
		NewLangString("2021-06-01", "en"), NewBool(true), NewTyped("10", XSDBoolean),
		NewIRI("http://ex.org/a"), NewIRI("http://ex.org/b"), NewIRI("10"), NewIRI("2021-06-01"),
		NewBlank("b1"), NewBlank("b2"), NewBlank("10"),
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		n := rng.Intn(40) - 20
		ts = append(ts,
			NewInteger(int64(n)),
			NewDecimal(float64(n)+float64(rng.Intn(4))/4),
			NewDouble(float64(n)*1.5),
			NewTyped(time.Date(2020, 1, 1+rng.Intn(90), 0, 0, 0, 0, time.UTC).Format("2006-01-02"), XSDDate),
			NewTyped(time.Date(2020, 1, 1+rng.Intn(3), rng.Intn(24), 0, 0, 0,
				time.FixedZone("", (rng.Intn(9)-4)*3600)).Format("2006-01-02T15:04:05Z07:00"), XSDDateTime),
			NewString(strconv.Itoa(n)),
		)
	}
	return ts
}

func sign(b bool, c bool) int {
	switch {
	case b:
		return -1
	case c:
		return 1
	}
	return 0
}

// TestOrderKeyIsLess: on every pair of the corpus, Compare on keys has the
// sign Less gives on the terms — and ties exactly where Less has them.
func TestOrderKeyIsLess(t *testing.T) {
	ts := orderCorpus()
	keys := make([]OrderKey, len(ts))
	for i, tm := range ts {
		keys[i] = tm.OrderKey()
		if keys[i].Term() != tm {
			t.Fatalf("key of %v carries %v", tm, keys[i].Term())
		}
	}
	for i, a := range ts {
		for j, b := range ts {
			want := sign(a.Less(b), b.Less(a))
			if got := keys[i].Compare(keys[j]); got != want {
				t.Fatalf("Compare(%v, %v) = %d, Less says %d", a, b, got, want)
			}
			if want == 0 && a != b {
				t.Fatalf("Less ties distinct terms %v and %v", a, b)
			}
		}
	}
}

// TestSortTermsMatchesLess: on inputs where Less is a total order (one
// value space per run), SortTerms and sort.Slice over Less agree.
func TestSortTermsMatchesLess(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var dates, nums, iris []Term
	for i := 0; i < 300; i++ {
		zone := time.FixedZone("", (rng.Intn(5)-2)*3600)
		dates = append(dates, NewTyped(time.Date(2020, 1, 1+rng.Intn(20), rng.Intn(24), 0, 0, 0, zone).
			Format("2006-01-02T15:04:05Z07:00"), XSDDateTime))
		nums = append(nums, NewInteger(int64(rng.Intn(50))), NewDecimal(float64(rng.Intn(200))/4))
		iris = append(iris, NewIRI("http://ex.org/"+strconv.Itoa(rng.Intn(500))), NewBlank(strconv.Itoa(i)))
	}
	for _, ts := range [][]Term{dates, nums, iris} {
		want := append([]Term(nil), ts...)
		sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
		got := append([]Term(nil), ts...)
		SortTerms(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("position %d: SortTerms %v, Less %v", i, got[i], want[i])
			}
		}
	}
}

func TestTimeDoesNotAllocate(t *testing.T) {
	for _, lex := range []string{
		"2021-06-01", "2021-06-01+02:00", "2021-06-01T10:00:00", "2021-06-01T12:00:00.25-05:30",
		"not a date", "2021-06-01T10:00", "2021-02-30", strings.Repeat("9", 40),
	} {
		tm := NewTyped(lex, XSDDateTime)
		if n := testing.AllocsPerRun(100, func() { tm.Time() }); n != 0 {
			t.Errorf("Time() of %q allocates %v times per call", lex, n)
		}
	}
}

// TestSortDatesAllocatesLinearly: sorting a 1 000-value xsd:date facet
// allocates the key slice and nothing per comparison.
func TestSortDatesAllocatesLinearly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := make([]Term, 1000)
	for i := range src {
		src[i] = NewTyped(time.Date(2015+rng.Intn(8), time.Month(1+rng.Intn(12)), 1+rng.Intn(28), 0, 0, 0, 0, time.UTC).
			Format("2006-01-02"), XSDDate)
	}
	ts := make([]Term, len(src))
	if n := testing.AllocsPerRun(10, func() { copy(ts, src); SortTerms(ts) }); n > 2 {
		t.Errorf("SortTerms of %d dates allocates %v times, want the key slice only", len(src), n)
	}
}
