package obs

import (
	"strings"
	"testing"
	"time"
)

// TestObjectiveCounters pins the two counters an external burn-rate rule
// reads: events count every observation, good only the successes within
// the threshold, both labelled by objective.
func TestObjectiveCounters(t *testing.T) {
	reg := NewRegistry()
	slos := NewSLOSet(reg)
	avail := slos.Add("avail", SLOAvailability, 0.9, 0)
	for i := 0; i < 10; i++ {
		avail.Record(i >= 5) // 5 bad, 5 good
	}
	lat := slos.Add("lat", SLOLatency, 0.95, 100*time.Millisecond)
	lat.Observe(time.Millisecond, false)     // good
	lat.Observe(time.Second, false)          // slow
	lat.Observe(time.Millisecond, true)      // failed fast
	lat.Observe(100*time.Millisecond, false) // at the threshold: good

	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`rdfa_slo_good_total{objective="avail"} 5`,
		`rdfa_slo_events_total{objective="avail"} 10`,
		`rdfa_slo_good_total{objective="lat"} 2`,
		`rdfa_slo_events_total{objective="lat"} 4`,
	} {
		if !strings.Contains(out.String(), want+"\n") {
			t.Errorf("exposition lacks %q:\n%s", want, out.String())
		}
	}
}

func TestSLOSetAddValidation(t *testing.T) {
	slos := NewSLOSet(NewRegistry())
	if slos.Add("bad", SLOAvailability, 0, 0) != nil {
		t.Error("target 0 must be rejected")
	}
	if slos.Add("bad", SLOAvailability, 1, 0) != nil {
		t.Error("target 1 must be rejected")
	}
	a := slos.Add("x", SLOAvailability, 0.99, 0)
	b := slos.Add("x", SLOLatency, 0.5, time.Second)
	if a == nil || a != b {
		t.Error("Add must be idempotent per name")
	}
	// Nil receivers and nil objectives are inert.
	var nilSet *SLOSet
	if nilSet.Add("x", SLOAvailability, 0.9, 0) != nil {
		t.Error("nil set Add must return nil")
	}
	var nilObj *Objective
	nilObj.Record(true)
	nilObj.Observe(time.Second, false)
}
