package obs

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

func wlRec(fp string, d time.Duration, outcome string, when time.Time) QueryRecord {
	return QueryRecord{
		FingerprintID: fp,
		Shape:         "select ?v1 {?v1 $ $}",
		Kind:          "sparql",
		Query:         "SELECT ?s WHERE { ?s <p> 1 }",
		Duration:      d,
		Rows:          10,
		Outcome:       outcome,
		When:          when,
	}
}

func TestWorkloadAggregates(t *testing.T) {
	w := NewWorkload(16)
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		w.Observe(wlRec("fpA", 10*time.Millisecond, "ok", base.Add(time.Duration(i)*time.Second)))
	}
	worst := wlRec("fpA", 200*time.Millisecond, "timeout", base.Add(10*time.Second))
	worst.TraceID = "worst-trace"
	w.Observe(worst)
	w.Observe(wlRec("fpB", 1*time.Millisecond, "ok", base))
	snap := w.Snapshot()
	if snap.Total != 7 || snap.Errors != 1 {
		t.Fatalf("total/errors = %d/%d, want 7/1", snap.Total, snap.Errors)
	}
	if len(snap.Fingerprints) != 2 {
		t.Fatalf("fingerprints = %d, want 2", len(snap.Fingerprints))
	}
	// Most frequent first.
	a := snap.Fingerprints[0]
	if a.ID != "fpA" || a.Count != 6 {
		t.Fatalf("first fingerprint = %s count %d, want fpA count 6", a.ID, a.Count)
	}
	if a.Outcomes["ok"] != 5 || a.Outcomes["timeout"] != 1 {
		t.Fatalf("outcomes = %v", a.Outcomes)
	}
	if a.P95Ms < a.P50Ms || a.P50Ms <= 0 {
		t.Fatalf("quantiles broken: p50=%v p95=%v", a.P50Ms, a.P95Ms)
	}
	// The worst-case run names its trace.
	if a.WorstTrace != "worst-trace" || a.WorstMs < 100 {
		t.Fatalf("worst-case trace not named: worst=%vms trace=%q", a.WorstMs, a.WorstTrace)
	}
	// Snapshot must be JSON-marshalable as served by /api/workload.
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not marshalable: %v", err)
	}
}

func TestWorkloadRingWraps(t *testing.T) {
	w := NewWorkload(16)
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 40; i++ {
		w.Observe(wlRec(fmt.Sprintf("fp%d", i), time.Millisecond, "ok", base.Add(time.Duration(i)*time.Second)))
	}
	snap := w.Snapshot()
	if len(snap.Recent) != 16 {
		t.Fatalf("recent = %d, want ring size 16", len(snap.Recent))
	}
	// Newest first.
	if snap.Recent[0].FingerprintID != "fp39" || snap.Recent[15].FingerprintID != "fp24" {
		t.Fatalf("ring order wrong: first=%s last=%s", snap.Recent[0].FingerprintID, snap.Recent[15].FingerprintID)
	}
	if snap.Total != 40 {
		t.Fatalf("total = %d, want 40 (ring wrap must not reset totals)", snap.Total)
	}
}

func TestWorkloadFingerprintEviction(t *testing.T) {
	w := NewWorkload(16)
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	for i := 0; i < maxFingerprints+50; i++ {
		w.Observe(wlRec(fmt.Sprintf("fp%d", i), time.Millisecond, "ok", base.Add(time.Duration(i)*time.Second)))
	}
	if n := len(w.Snapshot().Fingerprints); n != maxFingerprints {
		t.Fatalf("fingerprint map = %d entries, want bounded at %d", n, maxFingerprints)
	}
	// The oldest entries are the evicted ones.
	for _, fs := range w.Snapshot().Fingerprints {
		if fs.ID == "fp0" {
			t.Fatal("least-recently-seen fingerprint fp0 survived eviction")
		}
	}
}

func TestWorkloadMisestimates(t *testing.T) {
	w := NewWorkload(16)
	w.ObserveEstimates([]OpEstimate{
		{Op: "scan", Label: "?s <p> ?o .", Est: 100, Actual: 10, QError: 10},
		{Op: "scan", Label: "?s <q> ?o .", Est: 50, Actual: 50, QError: 1},
	})
	// Same site again, worse: q-error and est/act update, count accumulates.
	w.ObserveEstimates([]OpEstimate{
		{Op: "scan", Label: "?s <p> ?o .", Est: 100, Actual: 1, QError: 100},
	})
	snap := w.Snapshot()
	if len(snap.Misestimates) != 2 {
		t.Fatalf("misestimates = %d, want 2", len(snap.Misestimates))
	}
	top := snap.Misestimates[0]
	if top.QError != 100 || top.Actual != 1 || top.Count != 2 {
		t.Fatalf("worst site not updated: %+v", top)
	}
	// The table stays bounded, displacing only less-bad entries.
	var batch []OpEstimate
	for i := 0; i < maxMisestimates+20; i++ {
		batch = append(batch, OpEstimate{Op: "scan", Label: fmt.Sprintf("p%d", i), QError: float64(i)})
	}
	w.ObserveEstimates(batch)
	snap = w.Snapshot()
	if len(snap.Misestimates) != maxMisestimates {
		t.Fatalf("misestimate table = %d, want bounded at %d", len(snap.Misestimates), maxMisestimates)
	}
	if snap.Misestimates[0].QError != 100 {
		t.Fatalf("worst entry displaced: %+v", snap.Misestimates[0])
	}
}

func TestWorkloadNilAndTopSlow(t *testing.T) {
	var w *Workload
	w.Observe(QueryRecord{})
	w.ObserveEstimates([]OpEstimate{{QError: 2}})
	if snap := w.Snapshot(); snap.Total != 0 {
		t.Fatal("nil workload must be inert")
	}
	ww := NewWorkload(16)
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	ww.Observe(wlRec("slow", 500*time.Millisecond, "ok", base))
	ww.Observe(wlRec("fast", time.Millisecond, "ok", base))
	top := ww.TopSlow(1)
	if len(top) != 1 || top[0].ID != "slow" {
		t.Fatalf("TopSlow = %+v", top)
	}
}

func TestTruncateText(t *testing.T) {
	if got := TruncateText("short", 100); got != "short" {
		t.Errorf("short text modified: %q", got)
	}
	long := ""
	for i := 0; i < 100; i++ {
		long += "é" // 2 bytes each
	}
	got := TruncateText(long, 101) // falls inside a rune
	if len(got) > 101+len("…") {
		t.Errorf("truncated to %d bytes, want <= %d", len(got), 101+len("…"))
	}
	for _, r := range got {
		if r == '�' {
			t.Error("truncation split a rune")
		}
	}
}
