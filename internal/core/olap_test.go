package core

import (
	"maps"
	"reflect"
	"strings"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/rdf"
)

func ie(l string) rdf.Term { return rdf.NewIRI(datagen.InvoicesNS + l) }

func invoiceSession(t testing.TB) *Session {
	t.Helper()
	g := datagen.SmallInvoices()
	rdf.Materialize(g)
	s := NewSession(g, datagen.InvoicesNS)
	s.ClickClass(ie("Invoice"))
	return s
}

// TestRollUpDrillDown reproduces Fig 7.2: totals by (branch, product) roll
// up to totals by branch; drilling down restores the finer cube.
func TestRollUpDrillDown(t *testing.T) {
	s := invoiceSession(t)
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("takesPlaceAt")}}})
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("delivers")}}})
	s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: ie("inQuantity")}}}, hifun.Operation{Op: hifun.OpSum})
	fine, err := s.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	if len(fine.Rows) != 6 {
		t.Fatalf("fine cube rows = %d\n%s", len(fine.Rows), fine)
	}
	// Roll up: drop the product dimension.
	coarse, err := s.RollUp(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(coarse.Rows) != 3 {
		t.Fatalf("rolled-up rows = %d\n%s", len(coarse.Rows), coarse)
	}
	// Invariant: the rolled-up totals equal the sums of the fine cells.
	fromFine := map[rdf.Term]int64{}
	for _, row := range fine.Rows {
		n, _ := row[2].Int()
		fromFine[row[0]] += n
	}
	for _, row := range coarse.Rows {
		n, _ := row[1].Int()
		if n != fromFine[row[0]] {
			t.Errorf("roll-up mismatch for %v: %d vs %d", row[0], n, fromFine[row[0]])
		}
	}
	// Drill down again.
	fine2, err := s.DrillDown(GroupSpec{Path: facet.Path{{P: ie("delivers")}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fine2.Rows) != len(fine.Rows) {
		t.Fatalf("drill-down rows = %d, want %d", len(fine2.Rows), len(fine.Rows))
	}
	// Drill down along a derived attribute: each branch's month cells sum
	// to its rolled-up total.
	if _, err := s.RollUp(1); err != nil {
		t.Fatal(err)
	}
	byMonth, err := s.DrillDown(GroupSpec{Path: facet.Path{{P: ie("hasDate")}}, Derive: "MONTH"})
	if err != nil {
		t.Fatal(err)
	}
	fromMonths := map[rdf.Term]int64{}
	for _, row := range byMonth.Rows {
		n, _ := row[2].Int()
		fromMonths[row[0]] += n
	}
	if len(byMonth.Rows) <= len(coarse.Rows) {
		t.Errorf("month drill-down has %d rows, the branch totals %d", len(byMonth.Rows), len(coarse.Rows))
	}
	for _, row := range coarse.Rows {
		if n, _ := row[1].Int(); n != fromMonths[row[0]] {
			t.Errorf("%s: months sum to %d, total %d", row[0].LocalName(), fromMonths[row[0]], n)
		}
	}
}

// rollUpCase groups by keep and drop, aggregates, runs, and rolls drop up.
// The roll-up must answer what a fresh session grouping by keep alone
// answers, and want maps the kept column's local name to the measure's
// lexical form.
type rollUpCase struct {
	name       string
	session    func(testing.TB) *Session
	click      func(*Session) // a faceted click before the analytics, or nil
	keep, drop GroupSpec
	measure    MeasureSpec
	op         hifun.AggOp
	want       map[string]string
}

func checkRollUpEqualsFresh(t *testing.T, cases ...rollUpCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			analyze := func(groups ...GroupSpec) *Session {
				s := tc.session(t)
				if tc.click != nil {
					tc.click(s)
				}
				for _, g := range groups {
					s.ClickGroupBy(g)
				}
				s.ClickAggregate(tc.measure, hifun.Operation{Op: tc.op})
				return s
			}
			s := analyze(tc.keep, tc.drop)
			if _, err := s.RunAnalytics(); err != nil {
				t.Fatal(err)
			}
			rolled, err := s.RollUp(1)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := analyze(tc.keep).RunAnalytics()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rolled.Columns(), fresh.Columns()) || !reflect.DeepEqual(rolled.Rows, fresh.Rows) {
				t.Errorf("roll-up, %d rows:\n%s\nfresh session, %d rows:\n%s", len(rolled.Rows), rolled, len(fresh.Rows), fresh)
			}
			got := map[string]string{}
			for _, row := range rolled.Rows {
				got[row[0].LocalName()] = row[1].Value
			}
			if !maps.Equal(got, tc.want) {
				t.Errorf("roll-up = %v, want %v", got, tc.want)
			}
		})
	}
}

func inv(local string) GroupSpec { return GroupSpec{Path: facet.Path{{P: ie(local)}}} }

var quantity = MeasureSpec{Path: facet.Path{{P: ie("inQuantity")}}}

// TestRollUpEqualsFresh: MIN and MAX of a date roll up to what a fresh
// session answers. They used to roll up to an empty frame: a roll-up
// computed in memory from the finer answer dropped every row whose measure
// did not parse as a number.
func TestRollUpEqualsFresh(t *testing.T) {
	lap := func(local string) GroupSpec { return GroupSpec{Path: facet.Path{{P: pe(local)}}} }
	released := MeasureSpec{Path: facet.Path{{P: pe("releaseDate")}}}
	laptops := func(t testing.TB) *Session {
		s := productSession(t)
		s.ClickClass(pe("Laptop"))
		return s
	}
	checkRollUpEqualsFresh(t,
		rollUpCase{"laptops MIN releaseDate", laptops, nil, lap("manufacturer"), lap("USBPorts"), released, hifun.OpMin,
			map[string]string{"DELL": "2021-06-10", "Lenovo": "2021-10-10"}},
		rollUpCase{"laptops MAX releaseDate", laptops, nil, lap("manufacturer"), lap("USBPorts"), released, hifun.OpMax,
			map[string]string{"DELL": "2021-09-03", "Lenovo": "2021-10-10"}})
}

// The TestCubeReuse tests are named for the materialized cube that once
// served a coarser grouping from a finer answer. Every roll-up is now a
// fresh evaluation; they check its values per aggregate.

// TestCubeReuseRollUp: SUM by (branch, product) rolls up to SUM by branch.
func TestCubeReuseRollUp(t *testing.T) {
	checkRollUpEqualsFresh(t,
		rollUpCase{"invoices SUM", invoiceSession, nil, inv("takesPlaceAt"), inv("delivers"), quantity, hifun.OpSum,
			map[string]string{"branch1": "300", "branch2": "600", "branch3": "600"}})
}

// TestCubeReuseMinMaxCount: MIN, MAX and COUNT roll up as SUM does.
func TestCubeReuseMinMaxCount(t *testing.T) {
	checkRollUpEqualsFresh(t,
		rollUpCase{"invoices MIN", invoiceSession, nil, inv("takesPlaceAt"), inv("delivers"), quantity, hifun.OpMin,
			map[string]string{"branch1": "100", "branch2": "200", "branch3": "100"}},
		rollUpCase{"invoices MAX", invoiceSession, nil, inv("takesPlaceAt"), inv("delivers"), quantity, hifun.OpMax,
			map[string]string{"branch1": "200", "branch2": "400", "branch3": "400"}},
		rollUpCase{"invoices COUNT", invoiceSession, nil, inv("takesPlaceAt"), inv("delivers"), MeasureSpec{}, hifun.OpCount,
			map[string]string{"branch1": "2", "branch2": "2", "branch3": "3"}})
}

// TestCubeReuseDeclinedForAVG: AVG is not decomposable; the rolled-up value
// is the true average per branch, not an average of averages
// (branch3 = 600/3 = 200).
func TestCubeReuseDeclinedForAVG(t *testing.T) {
	checkRollUpEqualsFresh(t,
		rollUpCase{"invoices AVG", invoiceSession, nil, inv("takesPlaceAt"), inv("delivers"), quantity, hifun.OpAvg,
			map[string]string{"branch1": "150", "branch2": "300", "branch3": "200"}})
}

// TestCubeReuseDeclinedAcrossStates: after a faceted click restricts the
// extension, the roll-up answers the restricted state.
func TestCubeReuseDeclinedAcrossStates(t *testing.T) {
	cocaLight := func(s *Session) { s.ClickValue(facet.Path{{P: ie("delivers")}}, ie("CocaLight")) }
	checkRollUpEqualsFresh(t,
		rollUpCase{"invoices SUM after a click", invoiceSession, cocaLight, inv("takesPlaceAt"), inv("delivers"), quantity, hifun.OpSum,
			map[string]string{"branch1": "200", "branch2": "600", "branch3": "400"}})
}

// TestRollUpPath climbs a dimension hierarchy: grouping by brand∘delivers
// rolls up from grouping by delivers.
func TestRollUpPath(t *testing.T) {
	s := invoiceSession(t)
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("delivers")}, {P: ie("brand")}}})
	s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: ie("inQuantity")}}}, hifun.Operation{Op: hifun.OpSum})
	byBrand, err := s.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	if len(byBrand.Rows) != 2 { // CocaCola, PepsiCo
		t.Fatalf("brands:\n%s", byBrand)
	}
	// RollUpPath shortens delivers/brand to delivers (finer actually —
	// climbing means dropping the tail; here the tail IS the coarser level,
	// so shortening moves to products).
	byProduct, err := s.RollUpPath(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(byProduct.Rows) != 3 { // CocaLight, PepsiMax, Fanta
		t.Fatalf("products:\n%s", byProduct)
	}
	// Error cases.
	if _, err := s.RollUpPath(5); err == nil {
		t.Error("bad index accepted")
	}
	if _, err := s.RollUpPath(0); err == nil {
		t.Error("single-hop path must not roll up")
	}
}

// TestDrillDownPath: Fig 7.2's drill-down along a dimension hierarchy.
// Extending delivers to delivers/brand regroups the product totals by brand
// (each brand cell is the sum of its products' cells), and RollUpPath undoes
// it: the first answer comes back.
func TestDrillDownPath(t *testing.T) {
	s := invoiceSession(t)
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("delivers")}}})
	s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: ie("inQuantity")}}}, hifun.Operation{Op: hifun.OpSum})
	byProduct, err := s.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	byBrand, err := s.DrillDownPath(0, facet.PathStep{P: ie("brand")})
	if err != nil {
		t.Fatal(err)
	}
	fromProducts := map[rdf.Term]int64{}
	for _, row := range byProduct.Rows {
		n, _ := row[1].Int()
		fromProducts[s.Model().G.Object(row[0], ie("brand"))] += n
	}
	if len(byBrand.Rows) != len(fromProducts) || len(byBrand.Rows) >= len(byProduct.Rows) {
		t.Fatalf("%d brand rows from %d product rows, want %d:\n%s", len(byBrand.Rows), len(byProduct.Rows), len(fromProducts), byBrand)
	}
	for _, row := range byBrand.Rows {
		if n, _ := row[1].Int(); n != fromProducts[row[0]] {
			t.Errorf("%s = %d, its products sum to %d", row[0].LocalName(), n, fromProducts[row[0]])
		}
	}
	back, err := s.RollUpPath(0)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != byProduct.String() {
		t.Errorf("drill-down then roll-up:\n%s\nwant the first answer:\n%s", back, byProduct)
	}
	if _, err := s.DrillDownPath(5, facet.PathStep{P: ie("brand")}); err == nil {
		t.Error("bad index accepted")
	}
	if _, err := s.DrillDownPath(-1, facet.PathStep{P: ie("brand")}); err == nil {
		t.Error("negative index accepted")
	}
}

func TestSlice(t *testing.T) {
	s := invoiceSession(t)
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("takesPlaceAt")}}})
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("delivers")}}})
	s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: ie("inQuantity")}}}, hifun.Operation{Op: hifun.OpSum})
	if _, err := s.RunAnalytics(); err != nil {
		t.Fatal(err)
	}
	// Slice on branch = branch3: product totals within branch3.
	ans, err := s.Slice(facet.Path{{P: ie("takesPlaceAt")}}, ie("branch3"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.GroupCols) != 1 {
		t.Fatalf("slice did not drop the dimension: %v", ans.GroupCols)
	}
	want := map[string]int64{"Fanta": 100, "CocaLight": 400, "PepsiMax": 100}
	if len(ans.Rows) != 3 {
		t.Fatalf("rows:\n%s", ans)
	}
	for _, row := range ans.Rows {
		if n, _ := row[1].Int(); n != want[row[0].LocalName()] {
			t.Errorf("%s = %d", row[0].LocalName(), n)
		}
	}
}

func TestDice(t *testing.T) {
	s := invoiceSession(t)
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("takesPlaceAt")}}})
	s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: ie("inQuantity")}}}, hifun.Operation{Op: hifun.OpSum})
	ans, err := s.Dice(facet.Path{{P: ie("takesPlaceAt")}}, []rdf.Term{ie("branch1"), ie("branch2")})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 2 {
		t.Fatalf("dice rows:\n%s", ans)
	}
	want := map[string]int64{"branch1": 300, "branch2": 600}
	for _, row := range ans.Rows {
		if n, _ := row[1].Int(); n != want[row[0].LocalName()] {
			t.Errorf("%s = %d", row[0].LocalName(), n)
		}
	}
}

func TestPivot(t *testing.T) {
	s := invoiceSession(t)
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("takesPlaceAt")}}})
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("delivers")}, {P: ie("brand")}}})
	s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: ie("inQuantity")}}}, hifun.Operation{Op: hifun.OpSum})
	ans, err := s.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	pt, err := Pivot(ans, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pt.Rows) != 3 || len(pt.Cols) != 2 {
		t.Fatalf("pivot shape %dx%d\n%s", len(pt.Rows), len(pt.Cols), pt)
	}
	// branch2 delivered only CocaCola products: its PepsiCo cell is empty.
	findRow := func(local string) int {
		for i, r := range pt.Rows {
			if r.LocalName() == local {
				return i
			}
		}
		return -1
	}
	findCol := func(local string) int {
		for j, c := range pt.Cols {
			if c.LocalName() == local {
				return j
			}
		}
		return -1
	}
	b2, pep, coca := findRow("branch2"), findCol("PepsiCo"), findCol("CocaCola")
	if b2 < 0 || pep < 0 || coca < 0 {
		t.Fatalf("pivot labels: %v / %v", pt.Rows, pt.Cols)
	}
	if !pt.Cells[b2][pep].IsZero() {
		t.Errorf("branch2/PepsiCo should be empty, got %v", pt.Cells[b2][pep])
	}
	if n, _ := pt.Cells[b2][coca].Int(); n != 600 {
		t.Errorf("branch2/CocaCola = %v", pt.Cells[b2][coca])
	}
	// Swapped pivot transposes.
	pt2, err := Pivot(ans, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pt2.Rows) != 2 || len(pt2.Cols) != 3 {
		t.Fatalf("swapped shape %dx%d", len(pt2.Rows), len(pt2.Cols))
	}
	if !strings.Contains(pt.String(), "branch2") {
		t.Error("pivot rendering broken")
	}
}

func TestPivotErrors(t *testing.T) {
	s := invoiceSession(t)
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("takesPlaceAt")}}})
	s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: ie("inQuantity")}}}, hifun.Operation{Op: hifun.OpSum})
	ans, err := s.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Pivot(ans, false, 0); err == nil {
		t.Error("1-dim pivot accepted")
	}
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("delivers")}}})
	ans, _ = s.RunAnalytics()
	if _, err := Pivot(ans, false, 7); err == nil {
		t.Error("bad measure index accepted")
	}
}

// TestHavingViaResultRestriction checks the direct HAVING route (without
// reloading): a result restriction on the operation.
func TestHavingViaResultRestriction(t *testing.T) {
	s := invoiceSession(t)
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: ie("takesPlaceAt")}}})
	s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: ie("inQuantity")}}},
		hifun.Operation{Op: hifun.OpSum, RestrictOp: ">", RestrictValue: rdf.NewInteger(300)})
	ans, err := s.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 2 {
		t.Fatalf("HAVING rows:\n%s", ans)
	}
}
