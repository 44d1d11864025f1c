package core

import (
	"errors"
	"strings"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/rdf"
)

func pe(l string) rdf.Term { return rdf.NewIRI(datagen.ExampleNS + l) }

func productSession(t testing.TB) *Session {
	t.Helper()
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	return NewSession(g, datagen.ExampleNS)
}

// TestExample1 is §5.1 Example 1: "average price of laptops made in 2021
// from US companies that have SSD and 2 USB ports" — an AVG query without
// GROUP BY, formulated purely by clicks.
func TestExample1(t *testing.T) {
	s := productSession(t)
	s.ClickClass(pe("Laptop"))
	// made in 2021
	s.ClickRange(facet.Path{{P: pe("releaseDate")}}, ">=", rdf.NewTyped("2021-01-01", rdf.XSDDate))
	s.ClickRange(facet.Path{{P: pe("releaseDate")}}, "<=", rdf.NewTyped("2021-12-31", rdf.XSDDate))
	// from US companies: expand manufacturer -> origin and click USA
	s.ClickValue(facet.Path{{P: pe("manufacturer")}, {P: pe("origin")}}, pe("USA"))
	// that have an SSD: hardDrive whose type is SSD — click the SSD drives
	s.ClickValueSet(facet.Path{{P: pe("hardDrive")}}, []rdf.Term{pe("SSD1"), pe("SSD2")})
	// and 2 USB ports
	s.ClickValue(facet.Path{{P: pe("USBPorts")}}, rdf.NewInteger(2))
	if s.State().Ext.Len() != 1 {
		t.Fatalf("extension = %v", s.State().Ext.Items())
	}
	// Σ on price with AVG; no G clicks.
	s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: pe("price")}}}, hifun.Operation{Op: hifun.OpAvg})
	ans, err := s.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 1 || len(ans.GroupCols) != 0 {
		t.Fatalf("answer shape: %v\n%s", ans.Columns(), ans)
	}
	if f, _ := ans.Rows[0][0].Float(); f != 900 { // laptop1 only
		t.Errorf("avg price = %v, want 900", ans.Rows[0][0])
	}
}

// TestExample2 is §5.1 Example 2: COUNT with GROUP BY on the expanded path
// manufacturer/origin.
func TestExample2(t *testing.T) {
	s := productSession(t)
	s.ClickClass(pe("Laptop"))
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("manufacturer")}, {P: pe("origin")}}})
	s.ClickAggregate(MeasureSpec{}, hifun.Operation{Op: hifun.OpCount})
	ans, err := s.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	// USA: 2 (DELL laptops), China: 1 (Lenovo laptop).
	want := map[string]int64{"USA": 2, "China": 1}
	if len(ans.Rows) != 2 {
		t.Fatalf("rows:\n%s", ans)
	}
	for _, row := range ans.Rows {
		if n, _ := row[1].Int(); n != want[row[0].LocalName()] {
			t.Errorf("%s = %d", row[0].LocalName(), n)
		}
	}
}

// TestExample3 is §5.1 Example 3: as Example 2 but with a range filter
// "2 or more USB ports".
func TestExample3(t *testing.T) {
	s := productSession(t)
	s.ClickClass(pe("Laptop"))
	s.ClickRange(facet.Path{{P: pe("USBPorts")}}, ">=", rdf.NewInteger(2))
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("manufacturer")}, {P: pe("origin")}}})
	s.ClickAggregate(MeasureSpec{}, hifun.Operation{Op: hifun.OpCount})
	ans, err := s.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"USA": 2, "China": 1}
	for _, row := range ans.Rows {
		if n, _ := row[1].Int(); n != want[row[0].LocalName()] {
			t.Errorf("%s = %d\n%s", row[0].LocalName(), n, ans)
		}
	}
}

// TestExample4 is §5.1 Example 4: average price grouped by company and
// year, then HAVING avg > t via loading the answer as a new dataset.
func TestExample4(t *testing.T) {
	s := productSession(t)
	s.ClickClass(pe("Laptop"))
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("manufacturer")}}})
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("releaseDate")}}, Derive: "YEAR"})
	s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: pe("price")}}}, hifun.Operation{Op: hifun.OpAvg})
	ans, err := s.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	// Groups: (DELL, 2021) avg 950, (Lenovo, 2021) avg 820.
	if len(ans.Rows) != 2 {
		t.Fatalf("rows:\n%s", ans)
	}
	// "Explore with FS": load as dataset, then restrict avg price > 900.
	if err := s.LoadAnswerAsDataset(); err != nil {
		t.Fatal(err)
	}
	if s.Depth() != 2 {
		t.Fatalf("depth = %d", s.Depth())
	}
	avgCol := ans.MeasureCols[0]
	s.ClickRange(facet.Path{{P: rdf.NewIRI(hifun.AnswerNS + avgCol)}}, ">", rdf.NewDecimal(900))
	if s.State().Ext.Len() != 1 {
		t.Fatalf("tuples after HAVING: %v", s.State().Ext.Items())
	}
	// The surviving tuple is the DELL group.
	tuple := s.State().Ext.Items()[0]
	man := s.Model().G.Object(tuple, rdf.NewIRI(hifun.AnswerNS+ans.GroupCols[0]))
	if man != pe("DELL") {
		t.Errorf("surviving group = %v", man)
	}
	// The filtered level is analyzable in turn: a COUNT over it counts the
	// groups the HAVING kept.
	s.ClickAggregate(MeasureSpec{}, hifun.Operation{Op: hifun.OpCount})
	kept, err := s.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	if len(kept.Rows) != 1 {
		t.Fatalf("COUNT over the HAVING-filtered answer:\n%s", kept)
	}
	if n, _ := kept.Rows[0][0].Int(); n != 1 {
		t.Errorf("COUNT over the HAVING-filtered answer = %d, want 1", n)
	}
	// Closing the level returns to the base dataset.
	if err := s.CloseLevel(); err != nil {
		t.Fatal(err)
	}
	if s.Depth() != 1 {
		t.Fatalf("depth after close = %d", s.Depth())
	}
}

// TestGUIFig62 reproduces the Fig 6.2 walk-through: "average, sum and max
// price of laptops that have 2 to 4 USB ports, grouped by manufacturer and
// the origin of manufacturer".
func TestGUIFig62(t *testing.T) {
	s := productSession(t)
	s.ClickClass(pe("Laptop"))
	s.ClickRange(facet.Path{{P: pe("USBPorts")}}, ">=", rdf.NewInteger(2))
	s.ClickRange(facet.Path{{P: pe("USBPorts")}}, "<=", rdf.NewInteger(4))
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("manufacturer")}}})
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("manufacturer")}, {P: pe("origin")}}})
	m := MeasureSpec{Path: facet.Path{{P: pe("price")}}}
	s.ClickAggregate(m, hifun.Operation{Op: hifun.OpAvg})
	s.ClickAggregate(m, hifun.Operation{Op: hifun.OpSum})
	s.ClickAggregate(m, hifun.Operation{Op: hifun.OpMax})
	ans, err := s.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.GroupCols) != 2 || len(ans.MeasureCols) != 3 {
		t.Fatalf("shape: %v / %v", ans.GroupCols, ans.MeasureCols)
	}
	for _, row := range ans.Rows {
		if row[0].LocalName() == "DELL" {
			if f, _ := row[2].Float(); f != 950 {
				t.Errorf("DELL avg = %v", row[2])
			}
			if n, _ := row[3].Int(); n != 1900 {
				t.Errorf("DELL sum = %v", row[3])
			}
			if n, _ := row[4].Int(); n != 1000 {
				t.Errorf("DELL max = %v", row[4])
			}
		}
	}
}

func TestGroupByToggle(t *testing.T) {
	s := productSession(t)
	p := GroupSpec{Path: facet.Path{{P: pe("manufacturer")}}}
	s.ClickGroupBy(p)
	if len(s.Analytics().GroupBy) != 1 {
		t.Fatal("group not added")
	}
	s.ClickGroupBy(p)
	if len(s.Analytics().GroupBy) != 0 {
		t.Fatal("second click must remove the group")
	}
}

func TestAggregateToggleAndMeasureSwitch(t *testing.T) {
	s := productSession(t)
	price := MeasureSpec{Path: facet.Path{{P: pe("price")}}}
	s.ClickAggregate(price, hifun.Operation{Op: hifun.OpAvg})
	s.ClickAggregate(price, hifun.Operation{Op: hifun.OpSum})
	if len(s.Analytics().Ops) != 2 {
		t.Fatalf("ops = %v", s.Analytics().Ops)
	}
	// Toggling AVG off.
	s.ClickAggregate(price, hifun.Operation{Op: hifun.OpAvg})
	if len(s.Analytics().Ops) != 1 {
		t.Fatalf("ops after toggle = %v", s.Analytics().Ops)
	}
	// Switching the measure resets operations.
	s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: pe("USBPorts")}}}, hifun.Operation{Op: hifun.OpMax})
	if len(s.Analytics().Ops) != 1 || s.Analytics().Ops[0].Op != hifun.OpMax {
		t.Fatalf("ops after switch = %v", s.Analytics().Ops)
	}
}

func TestAnalyticsPreservesExtension(t *testing.T) {
	// §5.2.2: G and Σ clicks change the intention only; extension and
	// transitions stay the same.
	s := productSession(t)
	s.ClickClass(pe("Laptop"))
	before := s.State().Ext.Len()
	facetsBefore := len(s.Model().PropertyFacets(s.State(), false))
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("manufacturer")}}})
	s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: pe("price")}}}, hifun.Operation{Op: hifun.OpAvg})
	if s.State().Ext.Len() != before {
		t.Error("analytic click changed the extension")
	}
	if len(s.Model().PropertyFacets(s.State(), false)) != facetsBefore {
		t.Error("analytic click changed the transitions")
	}
}

func TestBackAndReset(t *testing.T) {
	s := productSession(t)
	s.ClickClass(pe("Laptop"))
	s.ClickValue(facet.Path{{P: pe("manufacturer")}}, pe("DELL"))
	if s.State().Ext.Len() != 2 {
		t.Fatal("setup")
	}
	if err := s.Back(); err != nil {
		t.Fatal(err)
	}
	if s.State().Ext.Len() != 3 {
		t.Fatalf("after back: %d", s.State().Ext.Len())
	}
	s.Reset()
	if s.State().Int.String() != "⊤" {
		t.Fatalf("after reset: %s", s.State().Int)
	}
	if err := s.Back(); err == nil {
		t.Fatal("back at initial state must fail")
	}
}

func TestRunAnalyticsWithoutOp(t *testing.T) {
	s := productSession(t)
	if _, err := s.RunAnalytics(); err == nil {
		t.Fatal("analytics without Σ selection must fail")
	}
}

func TestLoadAnswerWithoutAnswer(t *testing.T) {
	s := productSession(t)
	if err := s.LoadAnswerAsDataset(); err == nil {
		t.Fatal("loading without an answer must fail")
	}
	if err := s.CloseLevel(); err == nil {
		t.Fatal("closing base level must fail")
	}
}

func TestApplyTransform(t *testing.T) {
	// A company with two founders: founder is not functional; the transform
	// button (fco3) makes a usable attribute.
	g := datagen.SmallProducts()
	g.Add(rdf.Triple{S: pe("DELL"), P: pe("founder"), O: pe("SecondFounder")})
	rdf.Materialize(g)
	s := NewSession(g, datagen.ExampleNS)
	s.ClickClass(pe("Company"))
	n, err := s.ApplyTransform(hifun.FeatureSpec{
		Op: hifun.FCOCount, P: pe("founder"), Feature: pe("nFounders"),
	})
	if err != nil || n == 0 {
		t.Fatalf("transform: %d, %v", n, err)
	}
	// Group companies by founder count.
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("nFounders")}}})
	s.ClickAggregate(MeasureSpec{}, hifun.Operation{Op: hifun.OpCount})
	ans, err := s.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	// counts: DELL has 2 founders, Lenovo/Maxtor 1, AVDElectronics 0.
	want := map[string]int64{"2": 1, "1": 2, "0": 1}
	for _, row := range ans.Rows {
		if n, _ := row[1].Int(); n != want[row[0].Value] {
			t.Errorf("nFounders=%s count=%d\n%s", row[0].Value, n, ans)
		}
	}
}

func TestApplyTransformDurability(t *testing.T) {
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	s := NewSession(g, datagen.ExampleNS)
	s.ClickClass(pe("Company"))
	synced := 0
	s.SetDurability(func() error { synced++; return nil })
	if _, err := s.ApplyTransform(hifun.FeatureSpec{
		Op: hifun.FCOCount, P: pe("founder"), Feature: pe("nFounders"),
	}); err != nil {
		t.Fatal(err)
	}
	if synced != 1 {
		t.Fatalf("durability barrier called %d times, want 1", synced)
	}
	// A failing sync must be surfaced to the caller.
	s.SetDurability(func() error { return errors.New("disk gone") })
	if _, err := s.ApplyTransform(hifun.FeatureSpec{
		Op: hifun.FCOCount, P: pe("founder"), Feature: pe("nFounders2"),
	}); err == nil {
		t.Fatal("sync failure not surfaced by ApplyTransform")
	}
}

func TestComputeUIState(t *testing.T) {
	s := productSession(t)
	s.ClickClass(pe("Laptop"))
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("manufacturer")}}})
	s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: pe("price")}}}, hifun.Operation{Op: hifun.OpAvg})
	ui := s.ComputeUIState(10, false)
	if ui.TotalObjects != 3 || len(ui.Objects) != 3 {
		t.Fatalf("objects: %d/%d", len(ui.Objects), ui.TotalObjects)
	}
	var grouped, measured, numeric bool
	for _, f := range ui.Facets {
		if f.P == pe("manufacturer") && f.Grouped {
			grouped = true
		}
		if f.P == pe("price") && f.Measured {
			measured = true
		}
		if f.P == pe("USBPorts") && f.Numeric {
			numeric = true
		}
	}
	if !grouped || !measured || !numeric {
		t.Errorf("button states: G=%v Σ=%v numeric=%v", grouped, measured, numeric)
	}
	if ui.HIFUN == "" {
		t.Error("HIFUN query not rendered")
	}
	txt := ui.RenderText()
	for _, want := range []string{"manufacturer", "[G]", "[Σ]", "laptop1"} {
		if !strings.Contains(txt, want) {
			t.Errorf("render misses %q:\n%s", want, txt)
		}
	}
	// Paging caps the right frame.
	ui2 := s.ComputeUIState(2, false)
	if len(ui2.Objects) != 2 || ui2.TotalObjects != 3 {
		t.Errorf("paging: %d/%d", len(ui2.Objects), ui2.TotalObjects)
	}
}

// TestLargeScaleSession drives a full interaction over a ~100k-triple KG:
// the end-to-end sanity check at the paper's largest evaluation scale.
func TestLargeScaleSession(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale session in -short mode")
	}
	g := datagen.Products(datagen.ProductsConfig{Laptops: 11200, Companies: 16, Seed: 1, Materialize: true})
	if g.Len() < 90000 {
		t.Fatalf("dataset too small: %d triples", g.Len())
	}
	s := NewSession(g, datagen.ExampleNS)
	s.ClickClass(pe("Laptop"))
	if s.State().Ext.Len() != 11200 {
		t.Fatalf("laptops = %d", s.State().Ext.Len())
	}
	s.ClickRange(facet.Path{{P: pe("USBPorts")}}, ">=", rdf.NewInteger(3))
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("manufacturer")}, {P: pe("origin")}}})
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("releaseDate")}}, Derive: "YEAR"})
	s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: pe("price")}}}, hifun.Operation{Op: hifun.OpAvg})
	ans, err := s.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) == 0 || len(ans.GroupCols) != 2 {
		t.Fatalf("answer shape: %v, %d rows", ans.Columns(), len(ans.Rows))
	}
	// Nesting at scale.
	if err := s.LoadAnswerAsDataset(); err != nil {
		t.Fatal(err)
	}
	if s.State().Ext.Len() != len(ans.Rows) {
		t.Fatalf("nested tuples: %d vs %d", s.State().Ext.Len(), len(ans.Rows))
	}
}

func TestComputeUIStateBuckets(t *testing.T) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 60, Companies: 6, Seed: 3, Materialize: true})
	s := NewSession(g, datagen.ExampleNS)
	s.ClickClass(pe("Laptop"))
	ui := s.ComputeUIState(5, false)
	var priceFacet *FacetView
	for i := range ui.Facets {
		if ui.Facets[i].P == pe("price") {
			priceFacet = &ui.Facets[i]
		}
	}
	if priceFacet == nil || !priceFacet.Numeric {
		t.Fatal("price facet not numeric")
	}
	if len(priceFacet.Buckets) != 5 {
		t.Fatalf("buckets = %d", len(priceFacet.Buckets))
	}
	total := 0
	for _, b := range priceFacet.Buckets {
		total += b.Count
	}
	if total != 60 {
		t.Errorf("bucket counts sum to %d", total)
	}
}

func TestBuildHIFUNQueryShape(t *testing.T) {
	s := productSession(t)
	s.ClickClass(pe("Laptop"))
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("manufacturer")}}})
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("manufacturer")}, {P: pe("origin")}}})
	s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: pe("price")}}}, hifun.Operation{Op: hifun.OpAvg})
	q, err := s.BuildHIFUNQuery()
	if err != nil {
		t.Fatal(err)
	}
	pair, ok := q.Grouping.(hifun.Pair)
	if !ok || len(pair.Items) != 2 {
		t.Fatalf("grouping: %#v", q.Grouping)
	}
	// Second item is the composition origin∘manufacturer.
	comp, ok := pair.Items[1].(hifun.Comp)
	if !ok {
		t.Fatalf("second group: %#v", pair.Items[1])
	}
	if comp.Outer.(hifun.Prop).Name != pe("origin").Value {
		t.Errorf("outer = %v", comp.Outer)
	}
}

// TestAnswerCache: a run's key — what a shared answer cache files the
// answer under — repeats for an identical re-run, and differs for another
// query, another state, or a state that only prints like it.
func TestAnswerCache(t *testing.T) {
	s := productSession(t)
	s.ClickClass(pe("Laptop"))
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("manufacturer")}}})
	s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: pe("price")}}}, hifun.Operation{Op: hifun.OpAvg})
	key := func(s *Session) string {
		t.Helper()
		run, err := s.PrepareRun()
		if err != nil {
			t.Fatal(err)
		}
		return run.Key
	}
	k1 := key(s)
	if k2 := key(s); k2 != k1 {
		t.Errorf("identical re-run keyed %q, then %q", k1, k2)
	}
	// A different query is another key.
	s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: pe("price")}}}, hifun.Operation{Op: hifun.OpMax})
	k3 := key(s)
	if k3 == k1 {
		t.Error("AVG and MAX share a key")
	}
	// A faceted click changes the state: another key, and the answer sees it.
	s.ClickValue(facet.Path{{P: pe("manufacturer")}}, pe("DELL"))
	k4 := key(s)
	if k4 == k3 {
		t.Error("a faceted click left the key alone")
	}
	if a, err := s.RunAnalytics(); err != nil || len(a.Rows) != 1 {
		t.Fatalf("restricted answer = %v, %v; want one row", a, err)
	}
	// Another manufacturer with the same local name prints the same
	// breadcrumb and HIFUN text, and keys apart.
	other := productSession(t)
	other.ClickClass(pe("Laptop"))
	other.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("manufacturer")}}})
	for _, op := range s.Analytics().Ops {
		other.ClickAggregate(MeasureSpec{Path: facet.Path{{P: pe("price")}}}, op)
	}
	other.ClickValue(facet.Path{{P: pe("manufacturer")}}, rdf.NewIRI("http://other.example/DELL"))
	qs, _ := s.BuildHIFUNQuery()
	qo, _ := other.BuildHIFUNQuery()
	if other.State().Int.String() != s.State().Int.String() || qo.String() != qs.String() {
		t.Fatalf("%q %s and %q %s print apart; the check needs them alike", other.State().Int, qo, s.State().Int, qs)
	}
	if key(other) == k4 {
		t.Error("two manufacturers named DELL share a key")
	}
}

// TestSwitchFocusAnalytics pivots the focus (laptops → manufacturers) and
// runs analytics over the new entity type.
func TestSwitchFocusAnalytics(t *testing.T) {
	s := productSession(t)
	s.ClickClass(pe("Laptop"))
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("manufacturer")}}})
	s.SwitchFocus(facet.PathStep{P: pe("manufacturer")})
	// Analytics selections must have been cleared (they referred to laptops).
	if s.Analytics().Active() {
		t.Fatal("analytics not cleared after focus switch")
	}
	if s.State().Ext.Len() != 2 {
		t.Fatalf("companies = %v", s.State().Ext.Items())
	}
	// Average company size by origin over the *laptop manufacturers*.
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("origin")}}})
	s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: pe("size")}}}, hifun.Operation{Op: hifun.OpAvg})
	ans, err := s.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"USA": 133000, "China": 71500}
	if len(ans.Rows) != 2 {
		t.Fatalf("rows:\n%s", ans)
	}
	for _, row := range ans.Rows {
		if f, _ := row[1].Float(); f != want[row[0].LocalName()] {
			t.Errorf("%s = %v", row[0].LocalName(), row[1])
		}
	}
}

func TestSessionFromResults(t *testing.T) {
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	s := NewSessionFrom(g, datagen.ExampleNS, []rdf.Term{pe("laptop1"), pe("laptop3")})
	if s.State().Ext.Len() != 2 {
		t.Fatalf("ext = %d", s.State().Ext.Len())
	}
	s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: pe("price")}}}, hifun.Operation{Op: hifun.OpSum})
	ans, err := s.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := ans.Rows[0][0].Int(); n != 1720 { // 900 + 820
		t.Errorf("sum = %v\n%s", ans.Rows[0][0], ans)
	}
}

// countsByFirstColumn runs the session's analytics and sums the last
// column per local name of the first.
func countsByFirstColumn(t *testing.T, s *Session) map[string]int64 {
	t.Helper()
	ans, err := s.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for _, row := range ans.Rows {
		n, _ := row[len(row)-1].Int()
		out[row[0].LocalName()] += n
	}
	return out
}

// TestSecondSessionSeesMutationThroughFirst: two sessions over one graph.
// A transform applied through one, or a plain graph.Add, is a write the
// other is never told about; no answer it ran before may outlive it.
func TestSecondSessionSeesMutationThroughFirst(t *testing.T) {
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	a, b := NewSession(g, datagen.ExampleNS), NewSession(g, datagen.ExampleNS)

	// b runs "companies by founder count" before the feature exists.
	a.ClickClass(pe("Company"))
	b.ClickClass(pe("Company"))
	b.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("nFounders")}}})
	b.ClickAggregate(MeasureSpec{}, hifun.Operation{Op: hifun.OpCount})
	if got := countsByFirstColumn(t, b); len(got) != 0 {
		t.Fatalf("grouping by a feature nobody created yet = %v", got)
	}
	if n, err := a.ApplyTransform(hifun.FeatureSpec{Op: hifun.FCOCount, P: pe("founder"), Feature: pe("nFounders")}); err != nil || n == 0 {
		t.Fatalf("transform through a: %d, %v", n, err)
	}
	if got := countsByFirstColumn(t, b); len(got) == 0 {
		t.Error("b still answers from before a's transform")
	}

	// b runs laptops by (manufacturer, USB ports), and a DELL laptop then
	// arrives through the graph alone.
	b.Reset()
	b.ClickClass(pe("Laptop"))
	b.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("manufacturer")}}})
	b.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("USBPorts")}}})
	b.ClickAggregate(MeasureSpec{}, hifun.Operation{Op: hifun.OpCount})
	dell := countsByFirstColumn(t, b)["DELL"]
	nl := pe("laptopNew")
	g.Add(rdf.Triple{S: nl, P: rdf.NewIRI(rdf.RDFType), O: pe("Laptop")})
	g.Add(rdf.Triple{S: nl, P: pe("manufacturer"), O: pe("DELL")})
	g.Add(rdf.Triple{S: nl, P: pe("USBPorts"), O: rdf.NewInteger(2)})
	b.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("USBPorts")}}}) // coarsen
	if got := countsByFirstColumn(t, b)["DELL"]; got != dell+1 {
		t.Errorf("coarse grouping after graph.Add: DELL = %d, want %d", got, dell+1)
	}
	b.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("USBPorts")}}}) // back to the fine grouping
	if got := countsByFirstColumn(t, b)["DELL"]; got != dell+1 {
		t.Errorf("fine grouping after graph.Add: DELL = %d, want %d", got, dell+1)
	}
}
