package sparql

import (
	"fmt"
	"strings"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
)

func TestExplainJoinOrder(t *testing.T) {
	g := invoices(t)
	plan, err := Explain(g, `PREFIX ex: <http://e/>
SELECT ?i WHERE {
  ?i ?p ?o .
  ?i ex:delivers ex:fanta .
}`)
	if err != nil {
		t.Fatal(err)
	}
	// The selective pattern (delivers fanta, est. 1) must be scheduled
	// before the full scan.
	fanta := strings.Index(plan, "fanta")
	scanAll := strings.Index(plan, "?i ?p ?o")
	if fanta < 0 || scanAll < 0 || fanta > scanAll {
		t.Errorf("selective pattern not first:\n%s", plan)
	}
	if !strings.Contains(plan, "est. 1") {
		t.Errorf("estimates missing:\n%s", plan)
	}
}

func TestExplainClauses(t *testing.T) {
	g := invoices(t)
	plan, err := Explain(g, `PREFIX ex: <http://e/>
SELECT DISTINCT ?b (SUM(?q) AS ?t) WHERE {
  ?i ex:takesPlaceAt ?b .
  ?i ex:inQuantity ?q .
  FILTER(?q > 10)
  OPTIONAL { ?i ex:note ?n }
  FILTER(BOUND(?n))
  { SELECT ?z WHERE { ?z ex:brand ?w } }
  BIND(?q * 2 AS ?qq)
  VALUES ?v { 1 2 }
  MINUS { ?i ex:delivers ex:coca }
  { ?i ex:a ?x } UNION { ?i ex:b ?x }
} GROUP BY ?b HAVING (SUM(?q) > 0) ORDER BY ?b LIMIT 5 OFFSET 1`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"(in-run)", "at group end", "optional {", "subquery {",
		"bind", "values", "minus {", "union of 2", "group by", "having",
		"order by", "distinct", "limit 5 offset 1",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
}

func TestExplainErrors(t *testing.T) {
	g := invoices(t)
	if _, err := Explain(g, `ASK { ?s ?p ?o }`); err == nil {
		t.Error("ASK accepted by Explain")
	}
	if _, err := Explain(g, `NOT A QUERY`); err == nil {
		t.Error("garbage accepted by Explain")
	}
}

// optionalCompanyQuery is the standing benchmark's optional/company-1 query.
const optionalCompanyQuery = `PREFIX ex: <http://example.org/products#>
SELECT ?l ?h ?hm WHERE { ?l ex:manufacturer ex:Company1 ; ex:price ?p . FILTER(?p > %d)
  OPTIONAL { ?l ex:hardDrive ?h . ?h ex:manufacturer ?hm } }`

// TestExplainPricesOptionalBodyAsRun: EXPLAIN prices an OPTIONAL body the way
// it runs — with the variables its input binds, for one input row — so the
// body's scans, their order and their join types are the ones EXPLAIN
// ANALYZE then executes. Planned from nothing bound and the whole laptop
// set, the body's second scan was reported as a hash join that never ran.
func TestExplainPricesOptionalBodyAsRun(t *testing.T) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 2240, Companies: 16, Seed: 1})
	rdf.Materialize(g)
	src := fmt.Sprintf(optionalCompanyQuery, 1900)
	plan, err := Explain(g, src)
	if err != nil {
		t.Fatal(err)
	}
	var explained []string
	_, body, _ := strings.Cut(plan, "optional {")
	for _, line := range strings.Split(body, "\n") {
		if pat, rest, ok := strings.Cut(strings.TrimSpace(line), "  (est. "); ok && strings.HasPrefix(pat, "- scan ") {
			_, strategy, _ := strings.Cut(strings.TrimSuffix(rest, ")"), ", ")
			explained = append(explained, strings.TrimPrefix(pat, "- scan ")+" ["+strategy+"]")
		}
	}
	prof := NewProfile("query")
	if _, err := ExecSelectOpts(g, MustParse(src), Options{Profile: prof}); err != nil {
		t.Fatal(err)
	}
	var executed []string
	for _, scan := range findProfNodes(&Profile{root: findProfNodes(prof, "optional")[0]}, "scan") {
		executed = append(executed, scan.Label+" ["+scan.Strategy+"]")
	}
	if len(executed) != 2 || strings.Join(explained, "\n") != strings.Join(executed, "\n") {
		t.Errorf("EXPLAIN's body:\n  %s\nexecuted:\n  %s\n%s", strings.Join(explained, "\n  "), strings.Join(executed, "\n  "), plan)
	}
}

// TestExplainAnalyzeShowsTheFold: EXPLAIN ANALYZE of a grouped star query
// marks the one scan whose rows went straight to the group fold, next to its
// join type; with an OPTIONAL in the WHERE the fold reads a batch and no line
// is marked.
func TestExplainAnalyzeShowsTheFold(t *testing.T) {
	g := invoices(t)
	for _, c := range []struct {
		where string
		marks int
	}{
		{`?i ex:takesPlaceAt ?b . ?i ex:inQuantity ?q . FILTER(?q > 10)`, 1},
		{`?i ex:takesPlaceAt ?b . ?i ex:inQuantity ?q . OPTIONAL { ?i ex:delivers ?x }`, 0},
	} {
		out, err := ExplainAnalyze(g, `PREFIX ex: <http://e/> SELECT ?b (SUM(?q) AS ?t) WHERE { `+c.where+` } GROUP BY ?b`, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var marked []string
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "[fold]") {
				marked = append(marked, line)
			}
		}
		if len(marked) != c.marks {
			t.Fatalf("%s: %d lines marked [fold], want %d:\n%s", c.where, len(marked), c.marks, out)
		}
		for _, line := range marked {
			if !strings.HasPrefix(strings.TrimSpace(line), "scan ") || !strings.Contains(line, "] [fold]") {
				t.Errorf("%s: [fold] is not on a scan line, next to its join type: %q", c.where, line)
			}
		}
	}
}
