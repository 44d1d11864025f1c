package sparql

import (
	"fmt"
	"sync"
	"testing"

	"rdfanalytics/internal/rdf"
)

// scanEst builds a profile estimate row with the "[]" (no bound variables)
// context, the key a plan's first scan records under, observed over one
// input row.
func scanEst(op, label string, actual int64) EstimateStat {
	return EstimateStat{Op: op, Label: label, Est: 1, Actual: actual, ActualIn: 1, Ctx: "[]"}
}

// siteKey composes a feedback site key the way the store does.
func siteKey(label, ctx string) string {
	return label + "\x00" + ctx
}

func TestFeedbackStoreBasics(t *testing.T) {
	fb := NewFeedbackStore()
	if got := fb.SiteActuals("fp1", 3); got != nil {
		t.Fatalf("empty store returned actuals: %v", got)
	}
	fb.Observe("fp1", 3, []EstimateStat{
		scanEst("scan", "?s <p> ?o .", 42),
		scanEst("scan", "?o <q> ?r .", 7),
		scanEst("filter", "?x > 1", 99),                                        // non-scan ops must be ignored
		scanEst("scan", "", 5),                                                 // unlabeled scans must be ignored
		{Op: "scan", Label: "?a <r> ?b .", Est: 1, Actual: 3},                  // context-less scans must be ignored
		{Op: "scan", Label: "?o <q> ?r .", Actual: 9, ActualIn: 4, Ctx: "[o]"}, // same pattern, different context: a distinct site
	})
	got := fb.SiteActuals("fp1", 3)
	if len(got) != 3 ||
		got[siteKey("?s <p> ?o .", "[]")] != (SiteActual{In: 1, Out: 42}) ||
		got[siteKey("?o <q> ?r .", "[]")] != (SiteActual{In: 1, Out: 7}) ||
		got[siteKey("?o <q> ?r .", "[o]")] != (SiteActual{In: 4, Out: 9}) {
		t.Fatalf("SiteActuals = %v, want 3 context-keyed scan sites", got)
	}
	// The returned map must be a copy: mutating it cannot poison the store.
	got[siteKey("?s <p> ?o .", "[]")] = SiteActual{In: 1, Out: -1}
	if again := fb.SiteActuals("fp1", 3); again[siteKey("?s <p> ?o .", "[]")].Out != 42 {
		t.Fatalf("store mutated through returned snapshot: %v", again)
	}
	st := fb.Stats()
	if st.Fingerprints != 1 || st.Seeds != 1 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 fingerprint, 1 seed, 2 hits, 1 miss", st)
	}

	var nilFB *FeedbackStore
	nilFB.Observe("fp", 1, []EstimateStat{scanEst("scan", "x", 1)})
	if nilFB.SiteActuals("fp", 1) != nil {
		t.Fatal("nil store must be a no-op")
	}
	if (nilFB.Stats() != FeedbackStats{}) {
		t.Fatal("nil store stats must be zero")
	}
}

// TestFeedbackVersionInvalidation: a graph-version bump must wholesale
// invalidate seeded estimates — stale cardinalities are worse than none.
func TestFeedbackVersionInvalidation(t *testing.T) {
	fb := NewFeedbackStore()
	fb.Observe("fp1", 1, []EstimateStat{scanEst("scan", "site", 10)})
	if got := fb.SiteActuals("fp1", 1); got == nil {
		t.Fatal("same-version lookup missed")
	}
	if got := fb.SiteActuals("fp1", 2); got != nil {
		t.Fatalf("stale estimates survived a version bump: %v", got)
	}
	if st := fb.Stats(); st.Fingerprints != 0 || st.Version != 2 {
		t.Fatalf("stats after bump = %+v, want 0 fingerprints at version 2", st)
	}
	// Re-seeding at the new version works again.
	fb.Observe("fp1", 2, []EstimateStat{scanEst("scan", "site", 20)})
	if got := fb.SiteActuals("fp1", 2); got[siteKey("site", "[]")].Out != 20 {
		t.Fatalf("re-seed after bump failed: %v", got)
	}
}

func TestFeedbackEviction(t *testing.T) {
	fb := NewFeedbackStore()
	for i := 0; i < maxFeedbackFingerprints+10; i++ {
		fb.Observe(fmt.Sprintf("fp%d", i), 1, []EstimateStat{scanEst("scan", "s", 1)})
	}
	if n := fb.Stats().Fingerprints; n > maxFeedbackFingerprints {
		t.Fatalf("fingerprints = %d, want <= %d", n, maxFeedbackFingerprints)
	}
	// The most recently seeded entry must have survived LRU eviction.
	if fb.SiteActuals(fmt.Sprintf("fp%d", maxFeedbackFingerprints+9), 1) == nil {
		t.Fatal("newest fingerprint evicted")
	}
}

const feedbackQuery = `PREFIX ex: <http://e/>
SELECT ?i ?b ?q WHERE {
  ?i ex:takesPlaceAt ?b .
  ?i ex:inQuantity ?q .
  ?i ex:delivers ?p .
}`

// runWithFeedback executes q once against g with the shared store, returning
// the profile's estimate rows.
func runWithFeedback(t *testing.T, g *rdf.Graph, fb *FeedbackStore, src string) []EstimateStat {
	t.Helper()
	q := MustParse(src)
	prof := NewProfile("query")
	_, err := ExecSelectOpts(g, q, Options{
		Feedback:      fb,
		FingerprintID: FingerprintID(Fingerprint(q)),
		Profile:       prof,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prof.Estimates()
}

// TestFeedbackSecondRunSeeded is the closed loop end to end: the first run
// plans cold, the second plans from the first run's actuals, so every scan
// estimate is exact (q-error 1) and marked feedback-seeded.
func TestFeedbackSecondRunSeeded(t *testing.T) {
	g := invoices(t)
	fb := NewFeedbackStore()
	first := runWithFeedback(t, g, fb, feedbackQuery)
	if len(first) == 0 {
		t.Fatal("first run produced no estimates")
	}
	for _, e := range first {
		if e.Feedback {
			t.Fatalf("cold run marked feedback-seeded: %+v", e)
		}
	}
	second := runWithFeedback(t, g, fb, feedbackQuery)
	if len(second) == 0 {
		t.Fatal("second run produced no estimates")
	}
	for _, e := range second {
		if e.Op != "scan" {
			continue
		}
		if !e.Feedback {
			t.Errorf("second-run scan %q not feedback-seeded (est %d actual %d)", e.Label, e.Est, e.Actual)
		}
		if e.QError != 1 {
			t.Errorf("second-run scan %q q-error = %v, want 1", e.Label, e.QError)
		}
	}
}

// TestFeedbackResultsUnchanged: planning from feedback must not change
// answers.
func TestFeedbackResultsUnchanged(t *testing.T) {
	g := invoices(t)
	fb := NewFeedbackStore()
	q := MustParse(feedbackQuery)
	base, err := ExecSelectOpts(g, q, Options{NoReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		prof := NewProfile("query")
		res, err := ExecSelectOpts(g, q, Options{
			Feedback:      fb,
			FingerprintID: FingerprintID(Fingerprint(q)),
			Profile:       prof,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := canonical(bindings(res), res.Vars), canonical(bindings(base), base.Vars); len(got) != len(want) {
			t.Fatalf("pass %d: %d rows, want %d", pass, len(got), len(want))
		} else {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("pass %d row %d: %q != %q", pass, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFeedbackGraphMutationInvalidates: updating the graph bumps its version,
// so the next run must plan cold rather than from stale actuals.
func TestFeedbackGraphMutationInvalidates(t *testing.T) {
	g := invoices(t)
	fb := NewFeedbackStore()
	runWithFeedback(t, g, fb, feedbackQuery)
	if fb.Stats().Fingerprints == 0 {
		t.Fatal("first run did not seed the store")
	}
	g.Add(rdf.Triple{
		S: rdf.NewIRI("http://e/i99"),
		P: rdf.NewIRI("http://e/takesPlaceAt"),
		O: rdf.NewIRI("http://e/branch9"),
	})
	for _, e := range runWithFeedback(t, g, fb, feedbackQuery) {
		if e.Feedback {
			t.Fatalf("post-mutation run used stale feedback: %+v", e)
		}
	}
}

// TestFeedbackConcurrentReplans: many goroutines planning from and observing
// into one store, with interleaved graph-version bumps, must be race-free
// (run under -race) and leave the store consistent.
func TestFeedbackConcurrentReplans(t *testing.T) {
	g := invoices(t)
	fb := NewFeedbackStore()
	q := MustParse(feedbackQuery)
	fpID := FingerprintID(Fingerprint(q))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				prof := NewProfile("query")
				if _, err := ExecSelectOpts(g, q, Options{
					Feedback:      fb,
					FingerprintID: fpID,
					Profile:       prof,
				}); err != nil {
					t.Error(err)
					return
				}
				if w == 0 && i%10 == 9 {
					// Simulate a concurrent writer invalidating the store.
					fb.SiteActuals(fpID, g.Version()+uint64(i))
				}
			}
		}(w)
	}
	wg.Wait()
	if n := fb.Stats().Fingerprints; n > 1 {
		t.Fatalf("fingerprints = %d, want <= 1", n)
	}
}
