package sparql

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"rdfanalytics/internal/rdf"
)

// Tests for the single row representation (rows.go): allocation pins for the
// ID-space pipeline and the serializer, and the scratch dictionary's
// contract.

// starGraph holds n subjects with three properties each: 20 categories, a
// distinct value, 3 flags.
func starGraph(n int) *rdf.Graph {
	var sb strings.Builder
	sb.WriteString("@prefix ex: <http://e/> .\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "ex:s%d ex:cat ex:c%d ; ex:val %d ; ex:flag ex:f%d .\n", i, i%20, i, i%3)
	}
	return rdf.MustLoadTurtle(sb.String())
}

// TestGroupedJoinAllocations: a 3-pattern star join + GROUP BY + COUNT/SUM
// over 10 000 subjects allocates per operator and per group, never per row.
func TestGroupedJoinAllocations(t *testing.T) {
	const subjects = 10000
	g := starGraph(subjects)
	q := MustParse(`PREFIX ex: <http://e/>
SELECT ?c (COUNT(?s) AS ?n) (SUM(?v) AS ?total)
WHERE { ?s ex:cat ?c ; ex:val ?v ; ex:flag ?f } GROUP BY ?c`)
	var res *Results
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		if res, err = ExecSelectOpts(g, q, Options{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if res.Len() != 20 || res.Get(0, "n").Value != "500" {
		t.Fatalf("groups = %d, first count = %v; want 20 groups of 500", res.Len(), res.Get(0, "n"))
	}
	if allocs >= subjects/10 {
		t.Errorf("%v allocations for %d joined rows in %d groups: something allocates per row", allocs, subjects, res.Len())
	}
}

// TestStepAllocatesItsOutput: a join step allocates its output once, at its
// final size, and its build side once. The bytes a 4-pattern star with a
// pushed-down filter allocates stay within twice what its own profile says
// the steps returned (rows × width × 4 B) plus 24 B per build-side match —
// the rest being the plan, the aggregate's row numbers and the hash index
// (1.3× measured). Output grown by append, a scratch copy of every scan and a
// second copy of the build side put the same query at 4×.
func TestStepAllocatesItsOutput(t *testing.T) {
	g := starGraph(10000)
	q := MustParse(`PREFIX ex: <http://e/>
SELECT (COUNT(?s) AS ?n) (COUNT(?c) AS ?cats) (COUNT(?f) AS ?flags) (SUM(?v) AS ?total)
WHERE { ?s ex:flag ?f ; ex:cat ?c ; ex:val ?v ; ex:cat ?again . FILTER(?v >= 2500) }`)
	run := func(prof *Profile) {
		res, err := ExecSelectOpts(g, q, Options{Parallelism: 1, Profile: prof})
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Get(0, "n").Value; n != "7500" {
			t.Fatalf("COUNT(?s) = %s, want 7500", n)
		}
	}
	prof := NewProfile("test")
	run(prof) // also warms the block pool
	width := int64(selectScope(q).width())
	var returned, built int64
	var walk func(n *ProfNode)
	walk = func(n *ProfNode) {
		if n.Op == "scan" {
			returned += n.RowsOut * width * 4
			if n.Strategy == strategyHashJoin.String() {
				built += n.EstRows * 24
			}
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(prof.root)
	if built == 0 {
		t.Fatalf("no hash join ran:\n%s", prof.Tree())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(nil)
	runtime.ReadMemStats(&after)
	if alloc := int64(after.TotalAlloc - before.TotalAlloc); alloc > 2*(returned+built) {
		t.Errorf("allocated %d bytes for steps returning %d and building %d: %.1f× (want ≤ 2×)\n%s",
			alloc, returned, built, float64(alloc)/float64(returned+built), prof.Tree())
	}
}

// TestWriteJSONAllocations: serializing allocates a constant number of
// times, whatever the row count.
func TestWriteJSONAllocations(t *testing.T) {
	g := starGraph(10000)
	allocsFor := func(limit int) float64 {
		res, err := Select(g, fmt.Sprintf(`SELECT ?s ?c ?v WHERE { ?s <http://e/cat> ?c ; <http://e/val> ?v } LIMIT %d`, limit))
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != limit {
			t.Fatalf("rows = %d, want %d", res.Len(), limit)
		}
		return testing.AllocsPerRun(5, func() { res.JSON() })
	}
	// The slack is the runtime's own bookkeeping when a multi-MB body makes
	// the collector run inside the measured window.
	small, large := allocsFor(100), allocsFor(10000)
	if large > small+4 || large > 32 {
		t.Errorf("JSON() allocates %v times for 100 rows and %v for 10 000; want the same small constant", small, large)
	}
}

// TestJSONFillsItsSlice: the size JSON() counts before rendering is the size
// it renders — unbound cells, a repeated variable, every term shape and every
// escape class included — so the body is one allocation with no slack and no
// regrowth.
func TestJSONFillsItsSlice(t *testing.T) {
	terms := []rdf.Term{
		{}, rdf.NewIRI("http://e/<a>&b"), rdf.NewBlank("b0"), rdf.NewString("tab\t \"q\" \\ \x01 \u2028 caf\u00e9 \xff"),
		rdf.NewLangString("chat", "fr"), rdf.NewInteger(7), rdf.NewTyped("x", "http://e/dt\n"),
	}
	for rows := 0; rows <= len(terms)+1; rows++ {
		res := &Results{Vars: []string{"b", "a\"", "b", "c"}}
		for i := 0; i < rows; i++ {
			res.Rows = append(res.Rows, []rdf.Term{terms[i%len(terms)], terms[(i+1)%len(terms)], {}, terms[(i+i/len(terms))%len(terms)]})
		}
		body := res.JSON()
		if len(body) != cap(body) {
			t.Errorf("%d rows: body of %d bytes in a slice of %d", rows, len(body), cap(body))
		}
		if back, err := ParseJSONResults(strings.NewReader(string(body))); err != nil || back.Len() != rows {
			t.Errorf("%d rows: body does not parse back: %v", rows, err)
		}
	}
}

// TestSortKeepsSliceStablesPermutation: Results.Sort leaves the rows in the
// permutation sort.SliceStable left them in with the same comparison — the
// recorded response digests are of that permutation. It is the same merge
// sort asking the same questions, so this holds even where Term.Less is no
// strict weak order (10 < "9" by value, "9" < 9.5 by value, 9.5 < 10 by
// number) and "sorted" does not name one order.
func TestSortKeepsSliceStablesPermutation(t *testing.T) {
	pool := []rdf.Term{
		{}, e("a"), e("b"), rdf.NewBlank("b0"), rdf.NewString("9"), rdf.NewString("10"), rdf.NewInteger(9), rdf.NewInteger(10),
		rdf.NewDecimal(9.5), rdf.NewLangString("9", "en"), rdf.NewTyped("x", rdf.XSDInteger), rdf.NewTyped("2021-06-01", rdf.XSDDate),
	}
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{0, 1, 2, 19, 20, 21, 40, 41, 333, 5000} {
		rows := make([][]rdf.Term, n)
		for i := range rows {
			rows[i] = []rdf.Term{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]}
		}
		res := &Results{Vars: []string{"a", "b"}, Rows: slices.Clone(rows)}
		res.Sort()
		sort.SliceStable(rows, func(i, j int) bool {
			for k, a := range rows[i] {
				if b := rows[j][k]; a != b {
					return a.Less(b)
				}
			}
			return false
		})
		for i := range rows {
			if &rows[i][0] != &res.Rows[i][0] {
				t.Fatalf("%d rows: position %d holds %v, sort.SliceStable put %v there", n, i, res.Rows[i], rows[i])
			}
		}
	}
}

func scratchGraph(t *testing.T) *rdf.Graph {
	t.Helper()
	return specGraph(t,
		rdf.NewTriple(e("a"), e("v"), rdf.NewInteger(5)),
		rdf.NewTriple(e("b"), e("v"), rdf.NewInteger(6)),
		rdf.NewTriple(e("c"), e("v"), rdf.NewInteger(6)),
	)
}

// TestScratchValueMeetsGraphTerm: a computed value equal to a term the
// graph holds gets that term's ID, so it joins with it and groups with it.
func TestScratchValueMeetsGraphTerm(t *testing.T) {
	g := scratchGraph(t)
	res, err := Select(g, `SELECT ?s WHERE { BIND(2 + 3 AS ?x) ?s <http://e/v> ?x }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Get(0, "s") != e("a") {
		t.Errorf("BIND(2+3) joined to %v, want exactly ex:a", res.Rows)
	}
	res, err = Select(g, `SELECT ?k (COUNT(*) AS ?n) WHERE { { ?s <http://e/v> ?k } UNION { BIND(2 + 3 AS ?k) } } GROUP BY ?k`)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for i := range res.Rows {
		got[res.Get(i, "k").Value] = res.Get(i, "n").Value
	}
	if len(got) != 2 || got["5"] != "2" || got["6"] != "2" {
		t.Errorf("groups = %v, want 5→2 (graph term and computed value together) and 6→2", got)
	}
}

// TestScratchEqualTermsShareID: two computed values that are equal terms
// are one ID — in the dictionary itself and through DISTINCT / GROUP BY.
func TestScratchEqualTermsShareID(t *testing.T) {
	g := scratchGraph(t)
	d := &termDict{g: g, ids: map[rdf.Term]rdf.ID{}}
	seven, again := d.id(rdf.NewInteger(7)), d.id(rdf.NewTyped("7", rdf.XSDInteger))
	if seven != again || seven&scratchBit == 0 {
		t.Errorf("ids of two equal computed terms: %#x and %#x, want one scratch ID", seven, again)
	}
	if five, known := g.TermID(rdf.NewInteger(5)); !known || d.id(rdf.NewInteger(5)) != five {
		t.Errorf("a term the graph holds must keep the graph's ID %d", five)
	}
	if d.term(seven) != rdf.NewInteger(7) {
		t.Errorf("scratch ID decodes to %v", d.term(seven))
	}
	res, err := Select(g, `SELECT (COUNT(DISTINCT ?y) AS ?n) WHERE { ?s <http://e/v> ?v BIND(?v * 0 + 7 AS ?y) }`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Get(0, "n").Value; n != "1" {
		t.Errorf("COUNT(DISTINCT) over three equal computed values = %s, want 1", n)
	}
}

// TestScratchIDsSurviveConcurrentInserts: an INSERT DATA stream growing the
// graph's dictionary while queries evaluate never makes a scratch ID decode
// to a graph term — every computed cell still reads back as computed.
func TestScratchIDsSurviveConcurrentInserts(t *testing.T) {
	g := chainGraph(300)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			update := fmt.Sprintf(`INSERT DATA { <http://e/new%d> <http://e/fresh> "fresh%d" }`, i, i)
			if _, err := ExecUpdate(g, update); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	q := MustParse(`PREFIX ex: <http://e/>
SELECT ?v ?y WHERE { ?s ex:v ?v . ?s ex:link ?t . BIND(CONCAT("computed-", STR(?v)) AS ?y) }`)
	for run := 0; run < 20; run++ {
		res, err := ExecSelectOpts(g, q, Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 300 {
			t.Fatalf("rows = %d, want 300", res.Len())
		}
		for i := range res.Rows {
			if v, y := res.Get(i, "v"), res.Get(i, "y"); y != rdf.NewString("computed-"+v.Value) {
				t.Fatalf("run %d row %d: ?v = %v but ?y = %v", run, i, v, y)
			}
		}
	}
	close(stop)
	wg.Wait()
}
