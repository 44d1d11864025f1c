package sparql

import (
	"fmt"
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
//   - Profiling BenchmarkProfileOverhead's query costs at most 30 more than
//     not profiling it: a node is found by its site and labelled once.
func TestQueryAllocBudgets(t *testing.T) {
	t.Run("bind-year", func(t *testing.T) {
		g := datagen.Products(datagen.ProductsConfig{Laptops: 22400, Companies: 16, Seed: 1})
		rdf.Materialize(g)
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
		g, q := chainGraph(300), MustParse(profileBenchQuery)
		run := func(profile func() *Profile) float64 {
			return testing.AllocsPerRun(10, func() {
				if _, err := ExecSelectOpts(g, q, Options{Profile: profile()}); err != nil {
					t.Fatal(err)
				}
			})
		}
		off := run(func() *Profile { return nil })
		on := run(func() *Profile { return NewProfile("query") })
		if on-off > 30 {
			t.Errorf("a profiled execution allocates %v times, an unprofiled one %v: want at most 30 more", on, off)
		}
	})
}
