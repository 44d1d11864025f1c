package core

import (
	"math"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/rdf"
)

// laptop is one laptop of the small products KG as a direct read of its
// triples: what the expected answers below are folded from.
type laptop struct {
	id, maker, origin rdf.Term
	usb               int64
	price             float64
}

func laptopsOf(g *rdf.Graph) []laptop {
	var out []laptop
	for _, id := range rdf.InstancesOf(g, pe("Laptop")) {
		l := laptop{id: id, maker: g.Object(id, pe("manufacturer"))}
		l.origin = g.Object(l.maker, pe("origin"))
		l.usb, _ = g.Object(id, pe("USBPorts")).Int()
		l.price, _ = g.Object(id, pe("price")).Float()
		out = append(out, l)
	}
	return out
}

// foldBy groups the laptops keep accepts by key and folds each group with
// op ("count", "max" or "avg" of the price).
func foldBy(laptops []laptop, keep func(laptop) bool, key func(laptop) rdf.Term, op string) map[rdf.Term]float64 {
	n, sum, max := map[rdf.Term]float64{}, map[rdf.Term]float64{}, map[rdf.Term]float64{}
	for _, l := range laptops {
		if keep != nil && !keep(l) {
			continue
		}
		k := key(l)
		n[k]++
		sum[k] += l.price
		max[k] = math.Max(max[k], l.price)
	}
	switch op {
	case "count":
		return n
	case "max":
		return max
	}
	for k := range sum {
		sum[k] /= n[k]
	}
	return sum
}

func byMaker(l laptop) rdf.Term { return l.maker }

// wantExtension asserts the session's current extension is exactly want.
func wantExtension(t *testing.T, s *Session, want []rdf.Term) {
	t.Helper()
	ext := s.State().Ext
	if ext.Len() != len(want) {
		t.Fatalf("extension has %d objects, want %d: %v", ext.Len(), len(want), ext.Items())
	}
	for _, w := range want {
		if !ext.Has(w) {
			t.Errorf("extension misses %s", w)
		}
	}
}

// wantGroups asserts a one-dimensional answer holds exactly one row per key
// of want, with its value.
func wantGroups(t *testing.T, ans *hifun.Answer, want map[rdf.Term]float64) {
	t.Helper()
	if len(ans.GroupCols) != 1 || len(ans.Rows()) != len(want) {
		t.Fatalf("answer has %d grouping columns and %d rows, want 1 and %d:\n%s", len(ans.GroupCols), len(ans.Rows()), len(want), ans)
	}
	for _, row := range ans.Rows() {
		w, ok := want[row[0]]
		if got, _ := row[1].Float(); !ok || math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v, want %v (expected group: %v)", row[0].LocalName(), row[1], w, ok)
		}
	}
}

// evaluationTasks are the eight tasks of the paper's task-based evaluation
// (Chapter 8), spanning plain faceted search (T1–T2), simple analytics
// (T3–T5), path and range analytics (T6–T7) and nested analytics with HAVING
// (T8). The study itself needs participants; what is checked here is that the
// interaction model expresses every task and answers it correctly.
var evaluationTasks = []struct {
	id, desc string
	run      func(t *testing.T, s *Session, laptops []laptop)
}{
	{"T1", "Find all laptops", func(t *testing.T, s *Session, laptops []laptop) {
		s.ClickClass(pe("Laptop"))
		var want []rdf.Term
		for _, l := range laptops {
			want = append(want, l.id)
		}
		wantExtension(t, s, want)
	}},
	{"T2", "Find laptops manufactured by DELL", func(t *testing.T, s *Session, laptops []laptop) {
		s.ClickClass(pe("Laptop"))
		s.ClickValue(facet.Path{{P: pe("manufacturer")}}, pe("DELL"))
		var want []rdf.Term
		for _, l := range laptops {
			if l.maker == pe("DELL") {
				want = append(want, l.id)
			}
		}
		wantExtension(t, s, want)
	}},
	{"T3", "Average price of laptops", func(t *testing.T, s *Session, laptops []laptop) {
		s.ClickClass(pe("Laptop"))
		s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: pe("price")}}}, hifun.Operation{Op: hifun.OpAvg})
		ans, err := s.RunAnalytics()
		if err != nil {
			t.Fatal(err)
		}
		all := foldBy(laptops, nil, func(laptop) rdf.Term { return rdf.Term{} }, "avg")
		if len(ans.GroupCols) != 0 || len(ans.Rows()) != 1 {
			t.Fatalf("want one ungrouped row:\n%s", ans)
		}
		if got, _ := ans.Rows()[0][0].Float(); math.Abs(got-all[rdf.Term{}]) > 1e-9 {
			t.Errorf("average price = %v, want %v", ans.Rows()[0][0], all[rdf.Term{}])
		}
	}},
	{"T4", "Count of laptops per manufacturer", func(t *testing.T, s *Session, laptops []laptop) {
		s.ClickClass(pe("Laptop"))
		s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("manufacturer")}}})
		s.ClickAggregate(MeasureSpec{}, hifun.Operation{Op: hifun.OpCount})
		ans, err := s.RunAnalytics()
		if err != nil {
			t.Fatal(err)
		}
		wantGroups(t, ans, foldBy(laptops, nil, byMaker, "count"))
	}},
	{"T5", "Max price per manufacturer", func(t *testing.T, s *Session, laptops []laptop) {
		s.ClickClass(pe("Laptop"))
		s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("manufacturer")}}})
		s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: pe("price")}}}, hifun.Operation{Op: hifun.OpMax})
		ans, err := s.RunAnalytics()
		if err != nil {
			t.Fatal(err)
		}
		wantGroups(t, ans, foldBy(laptops, nil, byMaker, "max"))
	}},
	{"T6", "Count of laptops grouped by the origin of their manufacturer", func(t *testing.T, s *Session, laptops []laptop) {
		s.ClickClass(pe("Laptop"))
		s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("manufacturer")}, {P: pe("origin")}}})
		s.ClickAggregate(MeasureSpec{}, hifun.Operation{Op: hifun.OpCount})
		ans, err := s.RunAnalytics()
		if err != nil {
			t.Fatal(err)
		}
		wantGroups(t, ans, foldBy(laptops, nil, func(l laptop) rdf.Term { return l.origin }, "count"))
	}},
	{"T7", "Average price of laptops with at least 2 USB ports, by manufacturer", func(t *testing.T, s *Session, laptops []laptop) {
		s.ClickClass(pe("Laptop"))
		s.ClickRange(facet.Path{{P: pe("USBPorts")}}, ">=", rdf.NewInteger(2))
		s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("manufacturer")}}})
		s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: pe("price")}}}, hifun.Operation{Op: hifun.OpAvg})
		ans, err := s.RunAnalytics()
		if err != nil {
			t.Fatal(err)
		}
		wantGroups(t, ans, foldBy(laptops, func(l laptop) bool { return l.usb >= 2 }, byMaker, "avg"))
	}},
	{"T8", "Manufacturers whose average laptop price exceeds 900 (nested/HAVING)", func(t *testing.T, s *Session, laptops []laptop) {
		s.ClickClass(pe("Laptop"))
		s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("manufacturer")}}})
		s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: pe("price")}}}, hifun.Operation{Op: hifun.OpAvg})
		ans, err := s.RunAnalytics()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.LoadAnswerAsDataset(); err != nil {
			t.Fatal(err)
		}
		s.ClickRange(facet.Path{{P: rdf.NewIRI(hifun.AnswerNS + ans.MeasureCols[0])}}, ">", rdf.NewDecimal(900))
		// The reloaded dataset has one tuple per answer row; the restriction
		// leaves the tuples of the manufacturers averaging above 900.
		want := map[rdf.Term]bool{}
		for m, avg := range foldBy(laptops, nil, byMaker, "avg") {
			if avg > 900 {
				want[m] = true
			}
		}
		tuples := s.State().Ext.Items()
		if len(want) == 0 || len(tuples) != len(want) {
			t.Fatalf("%d tuples left, want %d", len(tuples), len(want))
		}
		for _, tuple := range tuples {
			if m := s.Model().G.Object(tuple, rdf.NewIRI(hifun.AnswerNS+ans.GroupCols[0])); !want[m] {
				t.Errorf("tuple of %s survived the restriction avg > 900", m)
			}
		}
	}},
}

// TestEvaluationTasks runs each task's click script against a fresh session
// over the small products KG and compares the extension or the answer with a
// direct fold over the same triples.
func TestEvaluationTasks(t *testing.T) {
	base := datagen.SmallProducts()
	rdf.Materialize(base)
	laptops := laptopsOf(base)
	if len(laptops) == 0 {
		t.Fatal("no laptops in the small products KG")
	}
	for _, task := range evaluationTasks {
		t.Run(task.id, func(t *testing.T) {
			task.run(t, NewSession(base.Clone(), datagen.ExampleNS), laptops)
		})
	}
}
