package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
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
// (§5.2.2), so the state they render reuses the level's class tree, facets
// and buckets — the only scans left are the right frame's object cards —
// and differs from the state before only in the button flags. Anything that
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
	if n := scansOf(g, func() { after = s.ComputeUIState(10, true) }); n != cards {
		t.Fatalf("render after G and Σ cost %d scans, want the %d object cards only", n, cards)
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
		for _, vc := range f.Values {
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

// TestPoppedStatesAreCollectable: Back and Reset shrink the history; the
// states they pop — each holding a whole extension — must not stay
// reachable through the history's backing array or the marker slot.
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
	if l := s.top(); len(l.history) != 1 || l.history[:cap(l.history)][1] != nil {
		t.Fatalf("history after Reset: len %d, tail not cleared", len(l.history))
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
	for step, click := range []func(*Session){
		func(*Session) {},
		func(s *Session) { s.ClickClass(pe("Product")) },
		func(s *Session) { s.ClickClass(pe("Laptop")) },
	} {
		click(a)
		click(b)
		sa, err := json.Marshal(a.ComputeUIState(50, true))
		if err != nil {
			t.Fatal(err)
		}
		sb, _ := json.Marshal(b.ComputeUIState(50, true))
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
