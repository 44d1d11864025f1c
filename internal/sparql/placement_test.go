package sparql

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
)

// Tests for what the greedy pre-pass used to decide without saying so: where
// a property path goes in its group, the order a path emits in, what order=
// counts, and which join type a cold plan ends up executing.

// profNodes calls fn for every node of the exported profile with the given op.
func profNodes(n *ProfNodeJSON, op string, fn func(*ProfNodeJSON)) {
	if n.Op == op {
		fn(n)
	}
	for i := range n.Children {
		profNodes(&n.Children[i], op, fn)
	}
}

// qChain is n00 -q-> n01 -q-> … -q-> n<edges>, inserted head first, so node
// IDs ascend along the chain.
func qChain(edges int) *rdf.Graph {
	g := rdf.NewGraph()
	for i := 0; i < edges; i++ {
		g.Add(rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://e/n%02d", i)),
			P: rdf.NewIRI("http://e/q"),
			O: rdf.NewIRI(fmt.Sprintf("http://e/n%02d", i+1)),
		})
	}
	return g
}

// TestPathOrderDeterministic: a path emits in ascending node-ID order, so a
// LIMIT over it cuts the same rows on every run.
// (Emitting by Go map iteration gave 30 different bodies in 30 runs.)
func TestPathOrderDeterministic(t *testing.T) {
	g := qChain(50)
	for src, want := range map[string]string{
		`SELECT ?x WHERE { <http://e/n00> <http://e/q>+ ?x } LIMIT 3`: "n01 n02 n03",
		`SELECT ?x WHERE { ?x <http://e/q>+ <http://e/n50> } LIMIT 3`: "n00 n01 n02",
		`SELECT ?x ?y WHERE { ?x <http://e/q>+ ?y } LIMIT 3`:          "n00 n01 n00 n02 n00 n03",
	} {
		q := MustParse(src)
		var first []byte
		for run := 0; run < 30; run++ {
			res, err := ExecSelect(g, q)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := res.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = buf.Bytes()
				var got []string
				for _, row := range res.Rows {
					for _, term := range row {
						got = append(got, strings.TrimPrefix(term.Value, "http://e/"))
					}
				}
				if strings.Join(got, " ") != want {
					t.Errorf("%s\n  = %v, want %s (ascending node ID)", src, got, want)
				}
			} else if !bytes.Equal(first, buf.Bytes()) {
				t.Fatalf("%s: run %d differs from the first:\n%s\n%s", src, run, first, buf.Bytes())
			}
		}
	}
}

const starQuery = `PREFIX ex: <http://example.org/products#>
SELECT ?l ?p ?d WHERE {
  ?l ex:price ?p ; ex:USBPorts 2 ; ex:manufacturer ex:Company1 ; ex:releaseDate ?d .
  FILTER(?p < 1500)
}`

// TestExplainOrderIsTextual: order= counts positions in the query text. The
// plan below runs the third pattern first; when a hidden pre-pass re-sorted
// the run before the search, the same plan read order=1→2→4→3.
func TestExplainOrderIsTextual(t *testing.T) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 400, Companies: 16, Seed: 1})
	plan, err := Explain(g, starQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "bgp 4 pattern(s)  (order=3→2→4→1, cost=638131)\n") {
		t.Errorf("plan header is not (order=3→2→4→1, cost=638131):\n%s", plan)
	}
	at := 0
	for _, step := range []string{
		"manufacturer> <http://example.org/products#Company1> .  (est. 38, index loop)",
		"USBPorts> \"2\"^^<http://www.w3.org/2001/XMLSchema#integer> .  (est. 85, hash join)",
		"releaseDate> ?d .  (est. 400, hash join)",
		"price> ?p .  (est. 400, hash join)",
		"filter (?p < ",
	} {
		i := strings.Index(plan[at:], step)
		if i < 0 {
			t.Fatalf("step list changed: %q missing or out of order:\n%s", step, plan)
		}
		at += i
	}
}

// TestColdPlanJoinType: the plan's input estimates for the price and
// releaseDate steps are far above the rows that arrive (q-error
// ≈ 40 at 198k triples), and a join type fixed at plan time built a hash
// table over every laptop to probe a few dozen rows. Decided from the live
// count, no build side exceeds hashBuildFactor × its input.
func TestColdPlanJoinType(t *testing.T) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 2000, Companies: 16, Seed: 1})
	prof := NewProfile("query")
	if _, err := ExecSelectOpts(g, MustParse(starQuery), Options{Profile: prof}); err != nil {
		t.Fatal(err)
	}
	scans := 0
	profNodes(prof.Export(), "scan", func(n *ProfNodeJSON) {
		scans++
		if n.Strategy == "hash join" && *n.EstRows > hashBuildFactor*n.RowsIn {
			t.Errorf("%s: hash build over %d triples to probe %d rows", n.Label, *n.EstRows, n.RowsIn)
		}
		if (strings.Contains(n.Label, "price") || strings.Contains(n.Label, "releaseDate")) && n.Strategy != "index loop" {
			t.Errorf("%s [%s], want [index loop] at %d input rows", n.Label, n.Strategy, n.RowsIn)
		}
	})
	if scans != 4 {
		t.Fatalf("profile has %d scans, want 4:\n%s", scans, prof.Tree())
	}
}

// TestPlaceTriples holds the placement rule on its own: each case lists the
// pieces, as textual positions, in the order they evaluate.
func TestPlaceTriples(t *testing.T) {
	cases := []struct {
		name, group, bound, want string
		textual                  bool
	}{
		{name: "no path is one run", group: `?a <p> ?b . ?c <r> ?d`, want: "[1 2]"},
		{name: "chain", group: `?a <p> ?b . ?b <q>+ ?c . ?c <r> ?d`, want: "[1] [2] [3]"},
		{name: "chain, path written first", group: `?b <q>+ ?c . ?c <r> ?d . ?a <p> ?b`, want: "[2] [1] [3]"},
		{name: "bridge", group: `?p <in> ?c . ?p <n> ?x . ?r <k> <R> . ?r <lab> ?l . ?c <w>+ ?r`, want: "[1 2] [5] [3 4]"},
		{name: "connected through plain triples", group: `?a <p> ?b . ?c <q>+ ?d . ?b <p> ?c . ?d <r> ?e`, bound: "a", want: "[1 3] [2] [4]"},
		{name: "constant end before an unconnected scan", group: `?x <r> ?y . <n0> <q>+ ?x`, want: "[2] [1]"},
		{name: "bound end", group: `?x <q>+ ?y . ?y <r> ?z`, bound: "x", want: "[1] [2]"},
		{name: "bound, but elsewhere", group: `?x <q>+ ?y . ?y <r> ?z`, bound: "w", want: "[2] [1]"},
		{name: "anchored path before a free one", group: `?x <q>+ ?y . ?y <q>+ <n9>`, want: "[2] [1]"},
		{name: "nothing can bind an end", group: `?x <q>+ ?y . ?u <q>+ ?v`, want: "[1] [2]"},
		{name: "textual cuts at paths only", group: `?b <q>+ ?c . ?c <r> ?d . ?a <p> ?b`, textual: true, want: "[1] [2 3]"},
	}
	for _, c := range cases {
		q := MustParse("SELECT * WHERE { " + c.group + " }")
		pos := map[*TriplePattern]int{}
		var rest []*TriplePattern
		for i, e := range q.Where.Elems {
			pos[e.Triple] = i + 1
			rest = append(rest, e.Triple)
		}
		bound := map[string]bool{}
		if c.bound != "" {
			bound[c.bound] = true
		}
		var got []string
		for len(rest) > 0 {
			var piece []*TriplePattern
			piece, rest = placeTriples(rest, bound, c.textual)
			if len(piece) == 0 {
				t.Fatalf("%s: empty piece", c.name)
			}
			if tp := piece[0]; tp.Path != nil && tp.S.IsVar() && tp.O.IsVar() && !tp.touches(bound) && !c.textual {
				// Expanded from every source: nothing left may be able to bind
				// one of its ends first.
				for _, o := range rest {
					if o.Path == nil || !o.S.IsVar() || !o.O.IsVar() {
						t.Errorf("%s: %s expands from every source while %s is still to come", c.name, tp, o)
					}
				}
			}
			var ps []int
			for _, tp := range piece {
				ps = append(ps, pos[tp])
				for _, v := range tp.Vars() {
					bound[v] = true
				}
			}
			got = append(got, fmt.Sprint(ps))
		}
		if g := strings.Join(got, " "); g != c.want {
			t.Errorf("%s: { %s } evaluates as %s, want %s", c.name, c.group, g, c.want)
		}
	}
}

// TestPathPlacementProfile checks placement where it shows: the rows entering
// path_scan. A path whose end a plain triple can bind never starts from the
// group's single input row, in whatever order the group is written; a path
// with a constant end starts from it, once, instead of being re-checked for
// every row of an unconnected scan.
func TestPathPlacementProfile(t *testing.T) {
	g := qChain(20)
	for i := 0; i < 20; i++ {
		n := rdf.NewIRI(fmt.Sprintf("http://e/n%02d", i))
		g.Add(rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://e/a%02d", i)), P: rdf.NewIRI("http://e/p"), O: n})
		g.Add(rdf.Triple{S: n, P: rdf.NewIRI("http://e/r"), O: rdf.NewInteger(int64(i))})
	}
	pathRowsIn := func(group string) int64 {
		t.Helper()
		prof := NewProfile("query")
		if _, err := ExecSelectOpts(g, MustParse("SELECT * WHERE { "+group+" }"), Options{Profile: prof}); err != nil {
			t.Fatal(err)
		}
		in := int64(-1)
		profNodes(prof.Export(), "path_scan", func(n *ProfNodeJSON) { in = n.RowsIn })
		return in
	}
	chain := []string{`?a <http://e/p> ?b .`, `?b <http://e/q>+ ?c .`, `?c <http://e/r> ?d .`}
	for _, order := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		group := chain[order[0]] + " " + chain[order[1]] + " " + chain[order[2]]
		if in := pathRowsIn(group); in != 20 {
			t.Errorf("{ %s }: %d rows enter the path, want the 20 of the scan that binds its end", group, in)
		}
	}
	if in := pathRowsIn(`?x <http://e/r> ?y . <http://e/n00> <http://e/q>+ ?x`); in != 1 {
		t.Errorf("constant-ended path entered by %d rows, want 1: expand once, then join", in)
	}
}

// naivePairs is the (subject, object) relation of a path, by brute force.
// nodes is what a zero-length step relates to itself: every subject and object
// of the graph, plus the constant ends of the pattern the path stands in
// (SPARQL 1.1 §18.4, ZeroLengthPath).
func naivePairs(triples []rdf.Triple, nodes []rdf.Term, p Path) map[[2]rdf.Term]bool {
	out := map[[2]rdf.Term]bool{}
	switch x := p.(type) {
	case PathIRI:
		for _, tr := range triples {
			if tr.P == x.IRI {
				out[[2]rdf.Term{tr.S, tr.O}] = true
			}
		}
	case PathInverse:
		for pr := range naivePairs(triples, nodes, x.Sub) {
			out[[2]rdf.Term{pr[1], pr[0]}] = true
		}
	case PathAlt:
		out = naivePairs(triples, nodes, x.Left)
		for pr := range naivePairs(triples, nodes, x.Right) {
			out[pr] = true
		}
	case PathSeq:
		right := naivePairs(triples, nodes, x.Right)
		for l := range naivePairs(triples, nodes, x.Left) {
			for r := range right {
				if l[1] == r[0] {
					out[[2]rdf.Term{l[0], r[1]}] = true
				}
			}
		}
	case PathMod: // + (Min 1), * (Min 0), ? (Min 0, Max 1)
		step := naivePairs(triples, nodes, x.Sub)
		for pr := range step {
			out[pr] = true
		}
		if x.Min == 0 {
			for _, n := range nodes {
				out[[2]rdf.Term{n, n}] = true
			}
		}
		for grew := x.Max != 1; grew; {
			grew = false
			for l := range out {
				for r := range step {
					if pr := [2]rdf.Term{l[0], r[1]}; l[1] == r[0] && !out[pr] {
						out[pr], grew = true, true
					}
				}
			}
		}
	}
	return out
}

// TestPathGroupDifferential: groups mixing plain and path triples agree with
// a brute-force reference in textual order and under every planner option
// set, so moving a path within its group never changes the answer — zero-length
// steps included, over graphs whose objects are literals as well as resources.
func TestPathGroupDifferential(t *testing.T) {
	iri := func(s string) Path { return PathIRI{IRI: rdf.NewIRI("http://e/" + s)} }
	paths := []Path{
		PathMod{Sub: iri("p0"), Min: 1, Max: -1},
		PathSeq{Left: iri("p1"), Right: iri("p2")},
		PathInverse{Sub: iri("p0")},
		PathAlt{Left: iri("p0"), Right: iri("p1")},
		PathMod{Sub: PathSeq{Left: iri("p0"), Right: iri("p1")}, Min: 1, Max: -1},
		PathMod{Sub: PathInverse{Sub: iri("p2")}, Min: 1, Max: -1},
		PathMod{Sub: iri("p0"), Min: 0, Max: -1},
		PathMod{Sub: iri("p1"), Min: 0, Max: 1},
		PathMod{Sub: PathInverse{Sub: iri("p2")}, Min: 0, Max: -1},
		PathSeq{Left: iri("p1"), Right: PathMod{Sub: iri("p0"), Min: 0, Max: -1}},
		PathSeq{Left: PathMod{Sub: iri("p2"), Min: 0, Max: 1}, Right: iri("p0")},
		PathAlt{Left: PathMod{Sub: iri("p0"), Min: 0, Max: 1}, Right: iri("p2")},
	}
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 150; trial++ {
		g, triples := randomGraph(rng, 3+rng.Intn(25))
		patterns := make([]TriplePattern, 2+rng.Intn(4))
		nPaths := 1 + rng.Intn(2)
		varSet := map[string]bool{}
		for i := range patterns {
			patterns[i] = randomPattern(rng)
			if i < nPaths {
				patterns[i].P, patterns[i].Path = Node{}, paths[rng.Intn(len(paths))]
			}
			for _, v := range patterns[i].Vars() {
				if v != "" { // a path triple's predicate: the zero Node
					varSet[v] = true
				}
			}
		}
		rng.Shuffle(len(patterns), func(i, j int) { patterns[i], patterns[j] = patterns[j], patterns[i] })
		var vars []string
		for v := range varSet {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		var graphNodes []rdf.Term
		for _, tr := range triples {
			graphNodes = append(graphNodes, tr.S, tr.O)
		}
		ref := []Binding{{}}
		for _, tp := range patterns {
			rel := triples
			if tp.Path != nil {
				nodes := graphNodes
				for _, end := range []Node{tp.S, tp.O} {
					if !end.IsVar() {
						nodes = append(nodes[:len(nodes):len(nodes)], end.Term)
					}
				}
				rel = nil
				for pr := range naivePairs(triples, nodes, tp.Path) {
					rel = append(rel, rdf.Triple{S: pr[0], O: pr[1]})
				}
			}
			ref = naiveJoin(ref, tp, rel)
		}
		want := canonical(ref, vars)
		for name, opts := range plannerOptionSets() {
			gp := &GroupPattern{}
			for i := range patterns {
				gp.Elems = append(gp.Elems, PatternElem{Triple: &patterns[i]})
			}
			got := canonical(groupBindings(newEvaluator(context.Background(), g, opts), gp), vars)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("trial %d [%s]: %d rows, reference %d\npatterns: %v\n got: %q\nwant: %q",
					trial, name, len(got), len(want), patterns, got, want)
			}
		}
	}
}
