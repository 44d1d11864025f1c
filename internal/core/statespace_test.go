package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

// scansOf runs fn and returns how many index scans it cost the graph.
func scansOf(g *rdf.Graph, fn func()) uint64 {
	before := g.IndexScans()
	fn()
	return g.IndexScans() - before
}

// TestAnalyticClicksReuseMarkers: G and Σ leave the extension alone
// (§5.2.2), so the state they render reuses the level's object cards, class
// tree, facets and buckets — it scans nothing — and differs from the state
// before only in the button flags. Anything that
// can change the markers recounts them: a faceted click, the other inverse
// setting, a write to the graph.
func TestAnalyticClicksReuseMarkers(t *testing.T) {
	s := productSession(t)
	g := s.Model().G
	s.ClickClass(pe("Laptop"))

	var first *UIState
	full := scansOf(g, func() { first = s.ComputeUIState(10, true) })
	cards := uint64(len(first.Objects))
	if full <= cards {
		t.Fatalf("first render cost %d scans for %d cards: no marker counting seen", full, cards)
	}

	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("manufacturer")}}})
	s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: pe("price")}}}, hifun.Operation{Op: hifun.OpAvg})
	var after *UIState
	if n := scansOf(g, func() { after = s.ComputeUIState(10, true) }); n != 0 {
		t.Fatalf("render after G and Σ cost %d scans, want none", n)
	}
	if !reflect.DeepEqual(after.Objects, first.Objects) {
		t.Fatal("reused object cards differ from the computed ones")
	}
	if !reflect.DeepEqual(after.Classes, first.Classes) || len(after.Facets) != len(first.Facets) {
		t.Fatal("reused markers differ from the computed ones")
	}
	for i, f := range after.Facets {
		want := first.Facets[i]
		name := f.P.LocalName()
		want.Grouped = name == "manufacturer" && !f.Inverse
		want.Measured = name == "price" && !f.Inverse
		if !reflect.DeepEqual(f, want) {
			t.Errorf("facet %s after G/Σ = %+v, want %+v", name, f, want)
		}
		if first.Facets[i].Grouped || first.Facets[i].Measured {
			t.Errorf("the earlier render's facet %s picked up a later click's flags", name)
		}
	}
	if after.HIFUN == "" || first.HIFUN != "" {
		t.Errorf("HIFUN before %q, after %q", first.HIFUN, after.HIFUN)
	}

	if n := scansOf(g, func() { s.ComputeUIState(10, false) }); n <= cards {
		t.Errorf("the other inverse setting reused markers (%d scans)", n)
	}
	s.ComputeUIState(10, true)
	if _, err := sparql.ExecUpdate(g, `INSERT DATA { <`+pe("laptop1").Value+`> <`+pe("USBPorts").Value+`> 7 }`); err != nil {
		t.Fatal(err)
	}
	var written *UIState
	if n := scansOf(g, func() { written = s.ComputeUIState(10, true) }); n <= cards {
		t.Fatalf("render after INSERT DATA cost %d scans: stale markers reused", n)
	}
	seven := false
	for _, f := range written.Facets {
		for _, vc := range s.Model().Decode(f.Values) {
			seven = seven || (f.P == pe("USBPorts") && vc.Value == rdf.NewInteger(7))
		}
	}
	if !seven {
		t.Error("the inserted USBPorts value is missing from the markers")
	}
	s.ClickValue(facet.Path{{P: pe("manufacturer")}}, pe("DELL"))
	if n := scansOf(g, func() { s.ComputeUIState(10, true) }); n <= cards {
		t.Errorf("render after a faceted click cost %d scans: previous state's markers reused", n)
	}
}

// TestPoppedStatesAreCollectable: a level keeps its start state and its
// current one, no path of states. The states Back and Reset leave — each
// holding a whole extension — must not stay reachable, through the level or
// its marker slot, and Reset's state is the start state itself.
func TestPoppedStatesAreCollectable(t *testing.T) {
	s := productSession(t)
	collected := make(chan struct{}, 3)
	click := func(do func()) {
		do()
		runtime.SetFinalizer(s.State(), func(*facet.State) { collected <- struct{}{} })
	}
	click(func() { s.ClickClass(pe("Laptop")) })
	click(func() { s.ClickValue(facet.Path{{P: pe("manufacturer")}}, pe("DELL")) })
	click(func() { s.ClickRange(facet.Path{{P: pe("USBPorts")}}, ">=", rdf.NewInteger(2)) })
	s.ComputeUIState(10, true) // the marker slot now points at the newest state
	if err := s.Back(); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if l := s.top(); s.State() != l.start || len(l.log) != 0 || l.markers != nil {
		t.Fatalf("after Reset: at start %v, %d clicks logged, markers kept %v", s.State() == l.start, len(l.log), l.markers != nil)
	}
	for got := 0; got < 3; got++ {
		runtime.GC()
		select {
		case <-collected:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of 3 popped states were collected", got)
		}
	}
}

// TestUIStateSurvivesSnapshotRoundTrip: what a session renders depends on
// the graph's triples, not on how the graph came to hold them. The state
// over G and over ReadBinary(WriteBinary(G)) — what a restart serves — is
// the same byte for byte, object cards' display types and first properties
// included, before and after a click.
func TestUIStateSurvivesSnapshotRoundTrip(t *testing.T) {
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := rdf.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewSession(g, datagen.ExampleNS), NewSession(back, datagen.ExampleNS)
	// The markers are compared as the terms they decode to, not as IDs.
	render := func(s *Session) []byte {
		st := *s.ComputeUIState(50, true)
		st.Facets = slices.Clone(st.Facets)
		values := make([][]facet.TermCount, len(st.Facets))
		for i := range st.Facets {
			values[i] = st.model.Decode(st.Facets[i].Values)
			st.Facets[i].Values = nil
		}
		out, err := json.Marshal(struct {
			State  UIState
			Values [][]facet.TermCount
		}{st, values})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for step, click := range []func(*Session){
		func(*Session) {},
		func(s *Session) { s.ClickClass(pe("Product")) },
		func(s *Session) { s.ClickClass(pe("Laptop")) },
	} {
		click(a)
		click(b)
		sa, sb := render(a), render(b)
		if !bytes.Equal(sa, sb) {
			t.Errorf("step %d: the state over the reloaded graph differs:\n%s\n%s", step, sa, sb)
		}
	}
	// A laptop is a Laptop, not the Product every laptop also is.
	for _, card := range a.ComputeUIState(50, true).Objects {
		if card.Type != pe("Laptop") {
			t.Errorf("card of %v shows type %v, want its most specific class Laptop", card.Object, card.Type)
		}
	}
}

func TestDisplayType(t *testing.T) {
	schema := rdf.SchemaOf(func() *rdf.Graph {
		g := datagen.SmallProducts()
		rdf.Materialize(g)
		return g
	}())
	for _, c := range []struct {
		types []string
		want  string
	}{
		{[]string{"Product", "Laptop"}, "Laptop"},
		{[]string{"Laptop", "Product"}, "Laptop"},
		{[]string{"Product", "HDType", "SSD"}, "SSD"},
		{[]string{"Person", "Company"}, "Company"}, // unrelated classes: term order
		{[]string{"Product"}, "Product"},
	} {
		var types []rdf.Term
		for _, name := range c.types {
			types = append(types, pe(name))
		}
		if got := displayType(schema, types); got != pe(c.want) {
			t.Errorf("displayType(%v) = %v, want %s", c.types, got, c.want)
		}
	}
	if got := displayType(schema, nil); !got.IsZero() {
		t.Errorf("displayType of no types = %v, want the zero term", got)
	}
}

// allocsIn runs fn and returns how many objects it allocated with a function
// of the package path pkg on the stack, read from the runtime's memory
// profile at a sampling rate of one.
func allocsIn(pkg string, fn func()) int64 {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	count := func() (n int64) {
		// The profile lags two collections behind the allocations.
		runtime.GC()
		runtime.GC()
		k, ok := runtime.MemProfile(nil, true)
		var recs []runtime.MemProfileRecord
		for !ok {
			recs = make([]runtime.MemProfileRecord, k+64)
			k, ok = runtime.MemProfile(recs, true)
		}
		for _, r := range recs[:k] {
			frames := runtime.CallersFrames(r.Stack())
			for f, more := frames.Next(); ; f, more = frames.Next() {
				if strings.HasPrefix(f.Function, pkg+".") {
					n += r.AllocObjects
					break
				}
				if !more {
					break
				}
			}
		}
		return n
	}
	before := count()
	fn()
	return count() - before
}

// TestClickAllocBudget: what a click's state costs on the 11 200-laptop
// products graph, for the start state and the Laptop state. A render counts
// every marker as a dictionary ID and builds no term for one: from cold
// buffers it stays within a byte and allocation budget (it reads ≈2.65 MB
// and ≈0.71 MB, ≈2.71 MB and ≈0.71 MB under -race; with term-keyed markers
// a render cost ≈12.9 MB and ≈3.0 MB).
// The marker slot retains at most 12 B per marker value — the
// values' IDs and counts, with the object cards, class tree and buckets
// amortized over them. A G or Σ click renders from the slot and allocates
// nothing in internal/facet.
func TestClickAllocBudget(t *testing.T) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 11200, Companies: 16, Seed: 1, Materialize: true})
	s := NewSession(g, datagen.ExampleNS)
	for _, c := range []struct {
		name             string
		click            func()
		maxKB, maxAllocs uint64
	}{
		{"start", func() {}, 3000, 380},
		{"Laptop", func() { s.ClickClass(pe("Laptop")) }, 1300, 240},
	} {
		c.click()
		l := s.top()
		render := func() {
			l.markers = nil
			s.ComputeUIState(50, true)
		}
		render()
		// A render from cold buffers: the counters' pool emptied.
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		render()
		runtime.ReadMemStats(&after)
		values := 0
		for _, f := range l.markers.facets {
			values += len(f.Values)
		}
		kb, allocs := (after.TotalAlloc-before.TotalAlloc)>>10, after.Mallocs-before.Mallocs
		t.Logf("%s: %d marker values, %d objects; a render allocates %d KB in %d allocations", c.name, values, len(l.markers.objects), kb, allocs)
		if kb > c.maxKB || allocs > c.maxAllocs {
			t.Errorf("%s: a render allocates %d KB in %d allocations, want ≤ %d KB and ≤ %d", c.name, kb, allocs, c.maxKB, c.maxAllocs)
		}

		// Retention: the heap with the slot, less the heap without it.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		l.markers = nil
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		s.ComputeUIState(50, true)
		if perValue := float64(int64(before.HeapAlloc)-int64(after.HeapAlloc)) / float64(values); perValue > 12 {
			t.Errorf("%s: the marker slot retains %.1f B per value, want ≤ 12", c.name, perValue)
		} else {
			t.Logf("%s: the marker slot retains %.1f B per value", c.name, perValue)
		}

		if n := allocsIn("rdfanalytics/internal/facet", render); n == 0 {
			t.Fatalf("%s: a render shows no allocation in internal/facet: the profile reads nothing", c.name)
		}
		s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("manufacturer")}}})
		s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: pe("price")}}}, hifun.Operation{Op: hifun.OpAvg})
		if n := allocsIn("rdfanalytics/internal/facet", func() { s.ComputeUIState(50, true) }); n != 0 {
			t.Errorf("%s: a render after G and Σ allocates %d objects in internal/facet, want none", c.name, n)
		}
		s.ClearAnalytics()
	}
}
