package sparql

import (
	"testing"

	"rdfanalytics/internal/rdf"
)

func TestInsertData(t *testing.T) {
	g := rdf.NewGraph()
	res, err := ExecUpdate(g, `PREFIX ex: <http://e/>
INSERT DATA {
  ex:a ex:p ex:b .
  ex:a ex:q 42 .
  ex:a ex:q 42 .
}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 2 { // duplicate counted once
		t.Fatalf("inserted = %d", res.Inserted)
	}
	if !g.Has(rdf.Triple{S: rdf.NewIRI("http://e/a"), P: rdf.NewIRI("http://e/q"), O: rdf.NewInteger(42)}) {
		t.Error("typed literal missing")
	}
}

func TestDeleteData(t *testing.T) {
	g := invoices(t)
	before := g.Len()
	res, err := ExecUpdate(g, `PREFIX ex: <http://e/>
DELETE DATA { ex:i1 ex:inQuantity 200 . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 1 || g.Len() != before-1 {
		t.Fatalf("deleted = %d, len %d -> %d", res.Deleted, before, g.Len())
	}
	// Deleting again is a no-op.
	res, _ = ExecUpdate(g, `PREFIX ex: <http://e/>
DELETE DATA { ex:i1 ex:inQuantity 200 . }`)
	if res.Deleted != 0 {
		t.Fatalf("re-delete = %d", res.Deleted)
	}
}

func TestDeleteWhere(t *testing.T) {
	g := invoices(t)
	res, err := ExecUpdate(g, `PREFIX ex: <http://e/>
DELETE WHERE { ?i ex:delivers ex:pepsi . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 2 { // i2, i7
		t.Fatalf("deleted = %d", res.Deleted)
	}
	if n := g.MatchCount(rdf.Any, rdf.NewIRI("http://e/delivers"), rdf.NewIRI("http://e/pepsi")); n != 0 {
		t.Fatalf("pepsi deliveries remain: %d", n)
	}
	// Other triples of i2 survive (only the matched patterns are deleted).
	if g.MatchCount(rdf.NewIRI("http://e/i2"), rdf.Any, rdf.Any) == 0 {
		t.Error("unrelated triples of i2 deleted")
	}
}

func TestModifyDeleteInsertWhere(t *testing.T) {
	g := invoices(t)
	// Rename the property takesPlaceAt -> atBranch.
	res, err := ExecUpdate(g, `PREFIX ex: <http://e/>
DELETE { ?i ex:takesPlaceAt ?b }
INSERT { ?i ex:atBranch ?b }
WHERE { ?i ex:takesPlaceAt ?b }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 7 || res.Inserted != 7 {
		t.Fatalf("deleted=%d inserted=%d", res.Deleted, res.Inserted)
	}
	if g.PredicateCount(rdf.NewIRI("http://e/takesPlaceAt")) != 0 {
		t.Error("old property remains")
	}
	if g.PredicateCount(rdf.NewIRI("http://e/atBranch")) != 7 {
		t.Error("new property missing")
	}
}

func TestInsertWhere(t *testing.T) {
	g := invoices(t)
	// Materialize the delivers/brand composition as a direct property.
	res, err := ExecUpdate(g, `PREFIX ex: <http://e/>
INSERT { ?i ex:brandOf ?b } WHERE { ?i ex:delivers ?p . ?p ex:brand ?b }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 7 {
		t.Fatalf("inserted = %d", res.Inserted)
	}
}

func TestClearAll(t *testing.T) {
	g := invoices(t)
	res, err := ExecUpdate(g, `CLEAR ALL`)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 0 || res.Deleted == 0 {
		t.Fatalf("len = %d, deleted = %d", g.Len(), res.Deleted)
	}
}

func TestUpdateErrors(t *testing.T) {
	g := rdf.NewGraph()
	bad := []string{
		`INSERT DATA { ?x <http://e/p> 1 . }`, // variable in DATA
		`INSERT DATA { <http://e/a> <http://e/p> }`,
		`DELETE`,
		`FROB ALL`,
		`INSERT { <http://e/a> <http://e/p> 1 }`, // missing WHERE
	}
	for _, src := range bad {
		if _, err := ExecUpdate(g, src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestUpdatePrefixes(t *testing.T) {
	g := rdf.NewGraph()
	if _, err := ExecUpdate(g, `PREFIX a: <http://a/>
PREFIX b: <http://b/>
INSERT DATA { a:x b:p a:y . }`); err != nil {
		t.Fatal(err)
	}
	if !g.Has(rdf.Triple{S: rdf.NewIRI("http://a/x"), P: rdf.NewIRI("http://b/p"), O: rdf.NewIRI("http://a/y")}) {
		t.Error("prefixed insert failed")
	}
}

// TestUpdateThenQuery: updates and queries compose (the answer-as-dataset
// flow could be driven through the endpoint this way).
func TestUpdateThenQuery(t *testing.T) {
	g := rdf.NewGraph()
	ExecUpdate(g, `PREFIX ex: <http://e/>
INSERT DATA {
  ex:t1 ex:branch ex:b1 . ex:t1 ex:total 300 .
  ex:t2 ex:branch ex:b2 . ex:t2 ex:total 600 .
}`)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ?b WHERE { ?t ex:branch ?b . ?t ex:total ?v . FILTER(?v > 300) }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Get(0, "b").LocalName() != "b2" {
		t.Fatalf("rows: %s", res)
	}
}
