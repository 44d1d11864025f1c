package sparql

import (
	"fmt"
	"math"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
)

// TestQueryAllocBudgets: a query allocates per query, not per row, token or
// operator invocation.
//   - bind-year (BenchmarkJoinStep's shape, on its graph) stays within 150
//     allocations, and within 10 of itself for a company with ≈10 % more
//     laptops: each distinct year is formatted once per evaluation, not once
//     per row.
//   - Parsing BenchmarkParse's text stays within 70: tokens are substrings of
//     the query.
//   - Profiling BenchmarkProfileOverhead's query costs at most
//     profileAllocBudget more than not profiling it.
//   - The stars sum-by-maker and star-filter (BenchmarkJoinStep's shapes, on
//     its graph) allocate at most 64 KB each: their subject-keyed steps probe
//     SPO's subject directory, where each used to build a table over all of
//     its predicate's matches (1.1–1.7 MB a query). The chain allocates at
//     most 512 KB: its object-keyed steps probe POS, where they built tables
//     too (757 KB a query). Its one build left, keyed by subject with fewer
//     matches than rows, and its 6-row answer are most of the rest.
func TestQueryAllocBudgets(t *testing.T) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 22400, Companies: 16, Seed: 1})
	rdf.Materialize(g)
	t.Run("bind-year", func(t *testing.T) {
		allocs := func(company int) (float64, int) {
			q := MustParse(fmt.Sprintf(`PREFIX ex: <http://example.org/products#> SELECT ?y (COUNT(?l) AS ?n) WHERE { ?l ex:manufacturer ex:Company%d ; ex:releaseDate ?d . BIND(YEAR(?d) AS ?y) } GROUP BY ?y`, company))
			laptops := 0
			n := testing.AllocsPerRun(5, func() {
				res, err := ExecSelect(g, q)
				if err != nil {
					t.Fatal(err)
				}
				laptops = 0
				for _, row := range res.Rows {
					c, _ := row[1].Int()
					laptops += int(c)
				}
			})
			return n, laptops
		}
		few, fewRows := allocs(2)
		many, manyRows := allocs(7)
		t.Logf("%v allocations for %d laptops, %v for %d", few, fewRows, many, manyRows)
		if manyRows < fewRows+fewRows/20 {
			t.Fatalf("%d laptops against %d: the companies no longer differ in rows", manyRows, fewRows)
		}
		if few > 150 || many > 150 || many-few > 10 || few-many > 10 {
			t.Errorf("bind-year: %v allocations for %d laptops, %v for %d; want ≤ 150 and within 10 of each other", few, fewRows, many, manyRows)
		}
	})
	budget := func(t *testing.T, name, query string, most int64) {
		q := MustParse(`PREFIX ex: <http://example.org/products#> ` + query)
		run := func() {
			if _, err := ExecSelect(g, q); err != nil {
				t.Fatal(err)
			}
		}
		run() // warms the block pool
		alloc := leastAllocated(run)
		t.Logf("%s: %d bytes", name, alloc)
		if alloc > most {
			t.Errorf("%s allocates %d bytes a query, want ≤ %d KB", name, alloc, most>>10)
		}
	}
	t.Run("star", func(t *testing.T) {
		budget(t, "sum-by-maker", `SELECT ?m (SUM(?p) AS ?s) WHERE { ?l ex:manufacturer ?m ; ex:price ?p } GROUP BY ?m`, 64<<10)
		budget(t, "star-filter", `SELECT ?m (AVG(?p) AS ?a) WHERE { ?l ex:manufacturer ?m ; ex:USBPorts ?u ; ex:price ?p . FILTER(?u >= 2) } GROUP BY ?m`, 64<<10)
	})
	t.Run("chain", func(t *testing.T) {
		budget(t, "chain", `SELECT DISTINCT ?cont ?c WHERE { ?l ex:USBPorts 3 ; ex:hardDrive ?h . ?h ex:manufacturer ?m . ?m ex:origin ?c . ?c ex:locatedAt ?cont }`, 512<<10)
	})
	t.Run("parse", func(t *testing.T) {
		n := testing.AllocsPerRun(20, func() {
			if _, err := Parse(parseBenchQuery); err != nil {
				t.Fatal(err)
			}
		})
		if n > 70 {
			t.Errorf("Parse allocates %v times, want ≤ 70", n)
		}
	})
	t.Run("profile", func(t *testing.T) {
		if added := profileAllocs(t, chainGraph(300), MustParse(profileBenchQuery)); added > profileAllocBudget {
			t.Errorf("a profiled execution allocates %v times more than an unprofiled one: want at most %d", added, profileAllocBudget)
		}
	})
}

// profileAllocBudget is how many allocations profiling may add to an
// execution of BenchmarkProfileOverhead's query. Measured with go1.24 on
// linux/amd64: 1, the profile, which holds the first chunks of its slab;
// the budget is that plus 2. While every node and every children list was
// allocated on its own and every label rendered as its node was made, it
// measured 26 (budget 30).
const profileAllocBudget = 3

// profileAllocs returns how many more allocations an execution of q on g
// makes profiled than not.
func profileAllocs(t *testing.T, g *rdf.Graph, q *Query) float64 {
	t.Helper()
	run := func(profile func() *Profile) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := ExecSelectOpts(g, q, Options{Profile: profile()}); err != nil {
				t.Fatal(err)
			}
		})
	}
	off := run(func() *Profile { return nil })
	return run(func() *Profile { return NewProfile("query") }) - off
}

// TestProfileAllocsAreConstant: what profiling adds to an execution does not
// grow with the query. A 2-pattern query and a 10-pattern one with three
// filters, an ORDER BY and a LIMIT add the same allocations, within 1 — the
// nodes and their children lists are cut from the profile's slab, and no
// label is rendered while the query runs.
func TestProfileAllocsAreConstant(t *testing.T) {
	g := chainGraph(300)
	small := MustParse(`PREFIX ex: <http://e/> SELECT ?s ?t WHERE { ?s ex:v ?v . ?s ex:link ?t }`)
	large := MustParse(`PREFIX ex: <http://e/> SELECT ?s ?w WHERE {
		?s ex:v ?v . ?s ex:link ?t . ?t ex:w ?w . ?s ex:tag ?g .
		?s2 ex:link ?t . ?s2 ex:v ?v2 . ?s2 ex:tag ?g2 .
		?s3 ex:link ?t . ?s3 ex:v ?v3 . ?s3 ex:tag ?g3 .
		FILTER(?w < 40) FILTER(?v2 > 10) FILTER(?v3 != ?v)
	} ORDER BY ?s LIMIT 20`)
	// Each query runs once before it is measured: a first run resolves the
	// operator series it reports to.
	for _, q := range []*Query{small, large} {
		if _, err := ExecSelectOpts(g, q, Options{Profile: NewProfile("query")}); err != nil {
			t.Fatal(err)
		}
	}
	a, b := profileAllocs(t, g, small), profileAllocs(t, g, large)
	if math.Abs(a-b) > 1 {
		t.Errorf("profiling adds %v allocations to a 2-pattern query, %v to a 10-pattern one with filters: want the same, within 1", a, b)
	}
	t.Logf("profiling adds %v allocations to the 2-pattern query, %v to the 10-pattern one", a, b)
}
