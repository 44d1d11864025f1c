// Package conformance is the executable SPARQL-semantics correctness
// harness of the repository: a W3C-style, table-driven corpus of
// (data, query, expected-result) cases under testdata/, metamorphic oracles
// over seeded random queries, and a differential oracle pinning the
// HIFUN→SPARQL pipeline against direct computation on the graph.
//
// A corpus case is a directory
//
//	testdata/<category>/<name>/
//	    data.ttl      the dataset, in Turtle
//	    query.rq      the query (SELECT, ASK or CONSTRUCT)
//	    expect.srj    expected SELECT results, SPARQL 1.1 JSON results format
//	    expect.bool   expected ASK result: "true" or "false"
//	    expect.ttl    expected CONSTRUCT graph, in Turtle
//	    ordered       optional marker: compare SELECT rows order-sensitively
//
// Exactly one expect.* file must be present; `ordered` only applies to
// SELECT cases (typically ones with ORDER BY). Without it, row multisets
// are compared. Run the corpus with `go test ./internal/conformance/...`
// or `make conformance`; scripts/corpus-lint.sh rejects malformed cases.
package conformance

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

// Case is one corpus entry, located and validated by LoadCases.
type Case struct {
	// Category is the corpus subdirectory (e.g. "aggregates").
	Category string
	// Name is the case directory name.
	Name string
	// Dir is the full path to the case directory.
	Dir string
	// Expect is the expectation file name present in Dir (expect.srj,
	// expect.bool or expect.ttl).
	Expect string
	// Ordered makes SELECT row comparison order-sensitive.
	Ordered bool
}

// expectFiles are the recognized expectation files, exactly one per case.
var expectFiles = []string{"expect.srj", "expect.bool", "expect.ttl"}

// LoadCases walks a two-level corpus tree (root/category/case) and returns
// the validated cases sorted by category then name. A case directory
// missing data.ttl, query.rq or exactly one expect.* file is an error — the
// corpus must fail fast on malformed entries rather than silently skip.
func LoadCases(root string) ([]Case, error) {
	cats, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("conformance: reading corpus root: %w", err)
	}
	var out []Case
	for _, cat := range cats {
		if !cat.IsDir() {
			continue
		}
		caseDirs, err := os.ReadDir(filepath.Join(root, cat.Name()))
		if err != nil {
			return nil, err
		}
		for _, cd := range caseDirs {
			if !cd.IsDir() {
				continue
			}
			c := Case{
				Category: cat.Name(),
				Name:     cd.Name(),
				Dir:      filepath.Join(root, cat.Name(), cd.Name()),
			}
			for _, req := range []string{"data.ttl", "query.rq"} {
				if _, err := os.Stat(filepath.Join(c.Dir, req)); err != nil {
					return nil, fmt.Errorf("conformance: case %s/%s missing %s", c.Category, c.Name, req)
				}
			}
			for _, ef := range expectFiles {
				if _, err := os.Stat(filepath.Join(c.Dir, ef)); err == nil {
					if c.Expect != "" {
						return nil, fmt.Errorf("conformance: case %s/%s has both %s and %s", c.Category, c.Name, c.Expect, ef)
					}
					c.Expect = ef
				}
			}
			if c.Expect == "" {
				return nil, fmt.Errorf("conformance: case %s/%s has no expect.{srj,bool,ttl}", c.Category, c.Name)
			}
			if _, err := os.Stat(filepath.Join(c.Dir, "ordered")); err == nil {
				c.Ordered = true
			}
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Category != out[j].Category {
			return out[i].Category < out[j].Category
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}

// Run executes the case against the engine and returns nil when the result
// matches the expectation, or an error describing the divergence.
func (c Case) Run() error {
	dataBytes, err := os.ReadFile(filepath.Join(c.Dir, "data.ttl"))
	if err != nil {
		return err
	}
	g, err := rdf.LoadTurtleString(string(dataBytes))
	if err != nil {
		return fmt.Errorf("data.ttl: %w", err)
	}
	queryBytes, err := os.ReadFile(filepath.Join(c.Dir, "query.rq"))
	if err != nil {
		return err
	}
	query := string(queryBytes)
	q, err := sparql.Parse(query)
	if err != nil {
		return fmt.Errorf("query.rq: %w", err)
	}
	switch c.Expect {
	case "expect.bool":
		want, err := c.readBool()
		if err != nil {
			return err
		}
		got, err := sparql.Ask(g, query)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("ASK: got %v, want %v", got, want)
		}
		return nil
	case "expect.ttl":
		wantBytes, err := os.ReadFile(filepath.Join(c.Dir, "expect.ttl"))
		if err != nil {
			return err
		}
		want, err := rdf.LoadTurtleString(string(wantBytes))
		if err != nil {
			return fmt.Errorf("expect.ttl: %w", err)
		}
		got, err := sparql.Construct(g, query)
		if err != nil {
			return err
		}
		return compareGraphs(got, want)
	default: // expect.srj
		f, err := os.Open(filepath.Join(c.Dir, "expect.srj"))
		if err != nil {
			return err
		}
		defer f.Close()
		want, err := sparql.ParseJSONResults(f)
		if err != nil {
			return fmt.Errorf("expect.srj: %w", err)
		}
		got, err := sparql.ExecSelect(g, q)
		if err != nil {
			return err
		}
		return CompareResults(got, want, c.Ordered)
	}
}

func (c Case) readBool() (bool, error) {
	b, err := os.ReadFile(filepath.Join(c.Dir, "expect.bool"))
	if err != nil {
		return false, err
	}
	switch strings.TrimSpace(string(b)) {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return false, fmt.Errorf("expect.bool: want \"true\" or \"false\", got %q", string(b))
}

// CompareResults checks a computed SELECT result table against the expected
// one: the projection must match exactly, and rows must match as a sequence
// (ordered) or as a multiset (unordered). It is exported so the metamorphic
// oracles can reuse the same comparison.
func CompareResults(got, want *sparql.Results, ordered bool) error {
	if len(got.Vars) != len(want.Vars) {
		return fmt.Errorf("projection: got %v, want %v", got.Vars, want.Vars)
	}
	for i := range want.Vars {
		if got.Vars[i] != want.Vars[i] {
			return fmt.Errorf("projection: got %v, want %v", got.Vars, want.Vars)
		}
	}
	gk := RowKeys(got)
	wk := RowKeys(want)
	if !ordered {
		sort.Strings(gk)
		sort.Strings(wk)
	}
	if len(gk) != len(wk) {
		return fmt.Errorf("row count: got %d, want %d\ngot:\n%swant:\n%s", len(gk), len(wk), renderKeys(gk), renderKeys(wk))
	}
	for i := range wk {
		if gk[i] != wk[i] {
			return fmt.Errorf("row %d: got %s, want %s", i, renderKey(gk[i]), renderKey(wk[i]))
		}
	}
	return nil
}

// RowKeys canonicalizes each result row to one string over the projected
// variables, in projection order: the N-Triples form of each bound term,
// the empty slot for unbound ones.
func RowKeys(r *sparql.Results) []string {
	out := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		var sb strings.Builder
		for i, t := range row {
			if i > 0 {
				sb.WriteByte('\x1f')
			}
			if !t.IsZero() {
				sb.WriteString(t.String())
			}
		}
		out = append(out, sb.String())
	}
	return out
}

func renderKey(k string) string {
	return "[" + strings.ReplaceAll(k, "\x1f", " | ") + "]"
}

func renderKeys(ks []string) string {
	var sb strings.Builder
	for _, k := range ks {
		sb.WriteString("  ")
		sb.WriteString(renderKey(k))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// compareGraphs compares two graphs as canonical sorted N-Triples (the
// corpus avoids blank nodes in CONSTRUCT templates, so no isomorphism
// machinery is needed).
func compareGraphs(got, want *rdf.Graph) error {
	g := canonicalNT(got)
	w := canonicalNT(want)
	if g != w {
		return fmt.Errorf("graphs differ\ngot:\n%s\nwant:\n%s", g, w)
	}
	return nil
}

func canonicalNT(g *rdf.Graph) string {
	var lines []string
	for _, t := range g.Triples() {
		lines = append(lines, t.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
