package core

import (
	"strings"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/rdf"
)

func TestSnapshotRoundTrip(t *testing.T) {
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	s := NewSession(g, datagen.ExampleNS)
	s.ClickClass(pe("Laptop"))
	s.ClickValue(facet.Path{{P: pe("manufacturer")}}, pe("DELL"))
	s.ClickRange(facet.Path{{P: pe("USBPorts")}}, ">=", rdf.NewInteger(2))
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("manufacturer")}}})
	s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: pe("price")}}}, hifun.Operation{Op: hifun.OpAvg})
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "manufacturer") {
		t.Fatalf("snapshot content: %s", data)
	}
	restored, err := RestoreSession(g, data)
	if err != nil {
		t.Fatal(err)
	}
	if restored.State().Ext.Len() != s.State().Ext.Len() {
		t.Fatalf("extension: %d vs %d", restored.State().Ext.Len(), s.State().Ext.Len())
	}
	for _, e := range s.State().Ext.Items() {
		if !restored.State().Ext.Has(e) {
			t.Errorf("restored extension misses %v", e)
		}
	}
	// The analytic selections replay too: both sessions answer identically.
	a1, err := s.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := restored.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	if a1.String() != a2.String() {
		t.Errorf("answers differ:\n%s\nvs\n%s", a1, a2)
	}
}

func TestSnapshotNestedLevels(t *testing.T) {
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	s := NewSession(g, datagen.ExampleNS)
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
	s.ClickRange(facet.Path{{P: rdf.NewIRI(hifun.AnswerNS + ans.MeasureCols[0])}},
		">", rdf.NewDecimal(900))
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSession(g, data)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Depth() != 2 {
		t.Fatalf("depth = %d", restored.Depth())
	}
	if restored.State().Ext.Len() != s.State().Ext.Len() {
		t.Fatalf("nested extension: %d vs %d",
			restored.State().Ext.Len(), s.State().Ext.Len())
	}
}

func TestSnapshotWithPivotAndSeed(t *testing.T) {
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	s := NewSessionFrom(g, datagen.ExampleNS, []rdf.Term{pe("laptop1"), pe("laptop2")})
	s.SwitchFocus(facet.PathStep{P: pe("manufacturer")})
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSession(g, data)
	if err != nil {
		t.Fatal(err)
	}
	if restored.State().Ext.Len() != 1 || !restored.State().Ext.Has(pe("DELL")) {
		t.Fatalf("restored ext: %v", restored.State().Ext.Items())
	}
}

func TestSnapshotBackConsistency(t *testing.T) {
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	s := NewSession(g, datagen.ExampleNS)
	s.ClickClass(pe("Laptop"))
	s.ClickValue(facet.Path{{P: pe("manufacturer")}}, pe("DELL"))
	s.Back() // undo the DELL click; the snapshot must not contain it
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSession(g, data)
	if err != nil {
		t.Fatal(err)
	}
	if restored.State().Ext.Len() != 3 {
		t.Fatalf("ext after back+restore: %d", restored.State().Ext.Len())
	}
}

func TestRestoreErrors(t *testing.T) {
	g := datagen.SmallProducts()
	if _, err := RestoreSession(g, []byte("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := RestoreSession(g, []byte(`{"version":9,"levels":[{"ns":"x"}]}`)); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := RestoreSession(g, []byte(`{"version":1,"levels":[]}`)); err == nil {
		t.Error("empty snapshot accepted")
	}
	if _, err := RestoreSession(g, []byte(`{"version":1,"levels":[{"ns":"x","actions":[{"kind":"alien"}]}]}`)); err == nil {
		t.Error("unknown action accepted")
	}
	// What the click handlers refuse, the replay refuses too.
	for _, level := range []string{
		`"actions":[{"kind":"class","class":""}]`,
		`"actions":[{"kind":"value","path":[],"value":{"kind":"iri","value":"x"}}]`,
		`"actions":[{"kind":"valueset","values":[{"kind":"iri","value":"x"}]}]`,
		`"actions":[{"kind":"range","path":[{"p":""}],"op":">","value":{"value":"2"}}]`,
		`"actions":[{"kind":"pivot","path":[{"p":""}]}]`,
		`"actions":[],"groupBy":[{"path":[]}]`,
		`"actions":[],"groupBy":[{"path":[{"p":"x"}],"derive":"nosuch"}]`,
		`"actions":[],"measure":{"path":[{"p":"x"}],"derive":"nosuch"},"ops":[{"op":"SUM"}]`,
	} {
		if _, err := RestoreSession(g, []byte(`{"version":1,"levels":[{"ns":"x",`+level+`}]}`)); err == nil {
			t.Errorf("restored a level with %s", level)
		}
	}
}
