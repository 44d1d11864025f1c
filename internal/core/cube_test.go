package core

import (
	"strings"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/rdf"
)

// TestCubeReuseRollUp: after computing SUM by (branch, product), asking for
// SUM by (branch) is served from the cached cube — and equals a fresh
// evaluation.
func TestCubeReuseRollUp(t *testing.T) {
	s := invoiceSession(t)
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("takesPlaceAt")}}})
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("delivers")}}})
	s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: ie("inQuantity")}}}, hifun.Operation{Op: hifun.OpSum})
	if _, err := s.RunAnalytics(); err != nil {
		t.Fatal(err)
	}
	// Coarsen the grouping: remove the product dimension.
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("delivers")}}}) // toggle off
	rolled, err := s.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rolled.SPARQL, "materialized cube") {
		t.Fatalf("answer not served from cube:\n%s", rolled.SPARQL)
	}
	want := map[string]int64{"branch1": 300, "branch2": 600, "branch3": 600}
	if len(rolled.Rows) != 3 {
		t.Fatalf("rows:\n%s", rolled)
	}
	for _, row := range rolled.Rows {
		if n, _ := row[1].Int(); n != want[row[0].LocalName()] {
			t.Errorf("%s = %d (cube roll-up wrong)", row[0].LocalName(), n)
		}
	}
}

// TestCubeReuseMinMaxCount: the other decomposable aggregates also roll up
// correctly from cubes.
func TestCubeReuseMinMaxCount(t *testing.T) {
	for _, op := range []hifun.AggOp{hifun.OpMin, hifun.OpMax, hifun.OpCount} {
		s := invoiceSession(t)
		s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("takesPlaceAt")}}})
		s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("delivers")}}})
		meas := MeasureSpec{Path: facet.Path{{P: ie("inQuantity")}}}
		if op == hifun.OpCount {
			meas = MeasureSpec{}
		}
		s.ClickAggregate(meas, hifun.Operation{Op: op})
		if _, err := s.RunAnalytics(); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("delivers")}}})
		rolled, err := s.RunAnalytics()
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if !strings.Contains(rolled.SPARQL, "materialized cube") {
			t.Fatalf("%s: not served from cube", op)
		}
		// Fresh evaluation agrees.
		fresh := invoiceSession(t)
		fresh.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("takesPlaceAt")}}})
		fresh.ClickAggregate(meas, hifun.Operation{Op: op})
		direct, err := fresh.RunAnalytics()
		if err != nil {
			t.Fatal(err)
		}
		if len(direct.Rows) != len(rolled.Rows) {
			t.Fatalf("%s: %d vs %d rows", op, len(rolled.Rows), len(direct.Rows))
		}
		for i := range direct.Rows {
			dv, _ := direct.Rows[i][1].Float()
			rv, _ := rolled.Rows[i][1].Float()
			if dv != rv {
				t.Errorf("%s row %d: cube %v vs direct %v", op, i, rv, dv)
			}
		}
	}
}

// TestCubeReuseDeclinedForAVG: AVG is not decomposable; the roll-up must
// re-run the query, not reuse the cube.
func TestCubeReuseDeclinedForAVG(t *testing.T) {
	s := invoiceSession(t)
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("takesPlaceAt")}}})
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("delivers")}}})
	s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: ie("inQuantity")}}}, hifun.Operation{Op: hifun.OpAvg})
	if _, err := s.RunAnalytics(); err != nil {
		t.Fatal(err)
	}
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("delivers")}}})
	ans, err := s.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ans.SPARQL, "materialized cube") {
		t.Fatal("AVG must not be rolled up from a cube (averages of averages)")
	}
	// And the value is the true average per branch: branch3 = 600/3 = 200.
	for _, row := range ans.Rows {
		if row[0].LocalName() == "branch3" {
			if f, _ := row[1].Float(); f != 200 {
				t.Errorf("branch3 avg = %v, want 200", row[1])
			}
		}
	}
}

// TestCubeReuseDeclinedAcrossStates: a faceted click changes the extension;
// the old cube must not answer the new state.
func TestCubeReuseDeclinedAcrossStates(t *testing.T) {
	s := invoiceSession(t)
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("takesPlaceAt")}}})
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("delivers")}}})
	s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: ie("inQuantity")}}}, hifun.Operation{Op: hifun.OpSum})
	if _, err := s.RunAnalytics(); err != nil {
		t.Fatal(err)
	}
	// Restrict the extension, then ask for the coarser grouping.
	s.ClickValue(facet.Path{{P: ie("delivers")}}, ie("CocaLight"))
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("delivers")}}})
	ans, err := s.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ans.SPARQL, "materialized cube") {
		t.Fatal("stale cube reused across different extensions")
	}
	want := map[string]int64{"branch1": 200, "branch2": 600, "branch3": 400}
	for _, row := range ans.Rows {
		if n, _ := row[1].Int(); n != want[row[0].LocalName()] {
			t.Errorf("%s = %d", row[0].LocalName(), n)
		}
	}
}

// BenchmarkCubeReuse — materialized-cube ablation: answering a coarser
// grouping by re-running SPARQL vs rolling up the cached cube (the
// [16]/[51] technique of the survey, applied to the Answer-Frame cache).
func BenchmarkCubeReuse(b *testing.B) {
	g := datagen.Invoices(datagen.InvoicesConfig{Invoices: 5000, Branches: 20, Products: 100, Seed: 1})
	rdf.Materialize(g)
	setup := func(fineFirst bool) *Session {
		s := NewSession(g, datagen.InvoicesNS)
		s.ClickClass(ie("Invoice"))
		s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("takesPlaceAt")}}})
		if fineFirst {
			s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("delivers")}}})
		}
		s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: ie("inQuantity")}}},
			hifun.Operation{Op: hifun.OpSum})
		return s
	}
	b.Run("direct", func(b *testing.B) {
		for b.Loop() {
			s := setup(false)
			if _, err := s.RunAnalytics(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("from-cube", func(b *testing.B) {
		// A roll-up is served once per session state (its answer then sits
		// in the exact memo), so every iteration builds its own session and
		// fine cube off the clock; what is timed is the coarsening click and
		// the in-memory roll-up. (A b.N loop: with most of an iteration off
		// the clock, b.Loop ran for minutes before settling.)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := setup(true)
			if _, err := s.RunAnalytics(); err != nil { // materializes the fine cube
				b.Fatal(err)
			}
			b.StartTimer()
			s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("delivers")}}}) // coarsen
			ans, err := s.RunAnalytics()
			if err != nil {
				b.Fatal(err)
			}
			if !strings.Contains(ans.SPARQL, "materialized cube") {
				b.Fatal("answer not served from the cube")
			}
		}
	})
}
