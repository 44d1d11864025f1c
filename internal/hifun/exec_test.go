package hifun

import (
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
)

func TestExecuteSimple(t *testing.T) {
	c := invCtx(t)
	ans, err := c.ExecuteText("(takesPlaceAt, inQuantity, SUM)")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.GroupCols) != 1 || len(ans.MeasureCols) != 1 {
		t.Fatalf("cols: %v / %v", ans.GroupCols, ans.MeasureCols)
	}
	want := map[string]int64{"branch1": 300, "branch2": 600, "branch3": 600}
	if len(ans.Rows()) != 3 {
		t.Fatalf("rows: %d\n%s", len(ans.Rows()), ans)
	}
	for _, row := range ans.Rows() {
		if n, _ := row[1].Int(); n != want[row[0].LocalName()] {
			t.Errorf("%s = %d", row[0].LocalName(), n)
		}
	}
}

func TestExecuteEmptyGrouping(t *testing.T) {
	c := invCtx(t)
	ans, err := c.ExecuteText("(ε, inQuantity, AVG)")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows()) != 1 || len(ans.GroupCols) != 0 {
		t.Fatalf("shape: %v rows, %v group cols", len(ans.Rows()), ans.GroupCols)
	}
	if f, _ := ans.Rows()[0][0].Float(); f < 214 || f > 215 {
		t.Errorf("avg = %v", ans.Rows()[0][0])
	}
}

func TestExecuteCountIdent(t *testing.T) {
	c := invCtx(t)
	ans, err := c.ExecuteText("(brand.delivers, ID, COUNT)")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"CocaCola": 5, "PepsiCo": 2}
	for _, row := range ans.Rows() {
		if n, _ := row[1].Int(); n != want[row[0].LocalName()] {
			t.Errorf("%s = %d", row[0].LocalName(), n)
		}
	}
}

func TestExecuteMultiOps(t *testing.T) {
	c := NewContext(datagen.SmallProducts(), datagen.ExampleNS).
		WithRoot(rdf.NewIRI(datagen.ExampleNS + "Laptop"))
	ans, err := c.ExecuteText("(manufacturer, price, AVG; SUM; MAX)")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.MeasureCols) != 3 {
		t.Fatalf("measure cols: %v", ans.MeasureCols)
	}
	// DELL: prices 900, 1000 -> avg 950, sum 1900, max 1000.
	for _, row := range ans.Rows() {
		if row[0].LocalName() != "DELL" {
			continue
		}
		if f, _ := row[1].Float(); f != 950 {
			t.Errorf("avg = %v", row[1])
		}
		if n, _ := row[2].Int(); n != 1900 {
			t.Errorf("sum = %v", row[2])
		}
		if n, _ := row[3].Int(); n != 1000 {
			t.Errorf("max = %v", row[3])
		}
		return
	}
	t.Fatal("DELL row missing")
}

func TestExecuteDeterministicOrder(t *testing.T) {
	c := invCtx(t)
	a, _ := c.ExecuteText("(takesPlaceAt, inQuantity, SUM)")
	b, _ := c.ExecuteText("(takesPlaceAt, inQuantity, SUM)")
	for i := range a.Rows() {
		for j := range a.Rows()[i] {
			if a.Rows()[i][j] != b.Rows()[i][j] {
				t.Fatal("non-deterministic answer order")
			}
		}
	}
}

// TestLoadAsDataset is §5.3.3: the answer becomes n*k triples plus typing.
func TestLoadAsDataset(t *testing.T) {
	c := invCtx(t)
	ans, err := c.ExecuteText("(takesPlaceAt, inQuantity, SUM)")
	if err != nil {
		t.Fatal(err)
	}
	g := ans.LoadAsDataset()
	// 3 tuples x (2 attrs + 1 type) + 1 class declaration.
	if g.Len() != 3*3+1 {
		t.Fatalf("triples = %d, want 10\n", g.Len())
	}
	tuples := rdf.InstancesOf(g, rdf.NewIRI(AnswerNS+"Tuple"))
	if len(tuples) != 3 {
		t.Fatalf("tuples = %d", len(tuples))
	}
}

// TestNestedHaving reproduces Example 4 of §5.1: restricting the loaded
// answer corresponds to a HAVING over the original data.
func TestNestedHaving(t *testing.T) {
	c := invCtx(t)
	ans, err := c.ExecuteText("(takesPlaceAt, inQuantity, SUM)")
	if err != nil {
		t.Fatal(err)
	}
	// Load the answer as a dataset and filter sum > 300 via a nested HIFUN
	// query over the tuples.
	nested := ans.DatasetContext()
	measureCol := ans.MeasureCols[0]
	ans2, err := nested.ExecuteText("(" + ans.GroupCols[0] + "/" + "" + ", " + measureCol + ", SUM)")
	if err != nil {
		// The restriction syntax with empty value is invalid; instead filter
		// with a measuring restriction.
		ans2, err = nested.ExecuteText("(" + ans.GroupCols[0] + ", " + measureCol + "/>300, SUM)")
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(ans2.Rows()) != 2 { // branch2 and branch3 with 600
		t.Fatalf("nested rows = %d\n%s", len(ans2.Rows()), ans2)
	}
	// Equivalent direct HAVING query agrees.
	direct, err := c.ExecuteText("(takesPlaceAt, inQuantity, SUM/>300)")
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Rows()) != len(ans2.Rows()) {
		t.Fatalf("nested (%d) and direct HAVING (%d) disagree", len(ans2.Rows()), len(direct.Rows()))
	}
}

func TestAnswerProject(t *testing.T) {
	c := invCtx(t)
	ans, err := c.ExecuteText("(takesPlaceAt & delivers, inQuantity, SUM)")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.GroupCols) != 2 {
		t.Fatalf("cols: %v", ans.Columns())
	}
	// Keep only the first grouping column and the measure.
	p := ans.Project([]string{ans.GroupCols[0], ans.MeasureCols[0]})
	if len(p.GroupCols) != 1 || len(p.MeasureCols) != 1 {
		t.Fatalf("projected cols: %v / %v", p.GroupCols, p.MeasureCols)
	}
	if len(p.Rows()) != len(ans.Rows()) {
		t.Fatalf("projection must keep all rows: %d vs %d", len(p.Rows()), len(ans.Rows()))
	}
	rows := ans.Rows()
	for i, row := range p.Rows() {
		if len(row) != 2 || row[0] != rows[i][0] || row[1] != rows[i][2] {
			t.Fatalf("row %d = %v, projected from %v", i, row, rows[i])
		}
	}
	// Unknown columns are ignored.
	p2 := ans.Project([]string{"nope", ans.MeasureCols[0]})
	if len(p2.Columns()) != 1 {
		t.Fatalf("unknown column kept: %v", p2.Columns())
	}
}

func TestContextAttributes(t *testing.T) {
	c := NewContext(datagen.SmallProducts(), datagen.ExampleNS).
		WithRoot(rdf.NewIRI(datagen.ExampleNS + "Laptop"))
	rdf.Materialize(c.Graph)
	attrs := c.Attributes()
	names := map[string]bool{}
	for _, a := range attrs {
		names[a.LocalName()] = true
	}
	for _, want := range []string{"manufacturer", "price", "USBPorts", "releaseDate", "hardDrive"} {
		if !names[want] {
			t.Errorf("attribute %s missing: %v", want, attrs)
		}
	}
	if names["type"] || names["subClassOf"] {
		t.Error("meta properties leaked into attributes")
	}
}

func TestAnswerString(t *testing.T) {
	c := invCtx(t)
	ans, _ := c.ExecuteText("(takesPlaceAt, inQuantity, SUM)")
	s := ans.String()
	if len(s) == 0 || s[0] == '\n' {
		t.Errorf("bad table rendering:\n%s", s)
	}
}
