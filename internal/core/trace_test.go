package core

import (
	"strings"
	"testing"

	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/hifun"
)

// TestSessionLastTrace checks RunAnalytics leaves a span tree of its layers
// and the engine's operator profile for LastRun, and that a repeat run — a
// session memoizes nothing — evaluates again, under a trace of its own.
func TestSessionLastTrace(t *testing.T) {
	s := productSession(t)
	if s.LastTrace() != nil {
		t.Fatal("fresh session has a trace")
	}
	s.ClickClass(pe("Laptop"))
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("manufacturer")}}})
	s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: pe("price")}}},
		hifun.Operation{Op: hifun.OpAvg})
	if _, err := s.RunAnalytics(); err != nil {
		t.Fatal(err)
	}
	first, prof := s.LastRun()
	tree := first.Tree()
	for _, want := range []string{"run_analytics", "build_query", "translate", "exec", "build_answer"} {
		if !strings.Contains(tree, want) {
			t.Errorf("trace missing %q:\n%s", want, tree)
		}
	}
	if strings.Contains(tree, "bgp") {
		t.Errorf("the trace names an engine operator:\n%s", tree)
	}
	if pt := prof.Tree(); !strings.Contains(pt, "bgp") || prof.TraceID() != first.ID() {
		t.Errorf("profile of the run, linked to trace %q:\n%s", prof.TraceID(), pt)
	}
	if _, err := s.RunAnalytics(); err != nil {
		t.Fatal(err)
	}
	tr, second := s.LastRun()
	if tr == first || !strings.Contains(tr.Tree(), "exec") {
		t.Errorf("second run did not evaluate under its own trace:\n%s", tr.Tree())
	}
	if second == prof || !strings.Contains(second.Tree(), "bgp") {
		t.Errorf("profile of the second run:\n%s", second.Tree())
	}
}
