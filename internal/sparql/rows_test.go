package sparql

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

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
		if res, err = ExecSelect(g, q); err != nil {
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

// TestStepAllocatesItsOutput: a join run allocates its output once, at its
// final size, and each build side once, keeping of each match only what a
// probe reads; the steps before the last pass their rows on in pooled blocks
// and allocate nothing, and a step that feeds the group fold returns no
// output at all. The bytes that a 4-pattern star with a pushed-down filter,
// joined through its group to two twins, allocates — executed and encoded,
// as a /sparql miss does — stay within 1.2× its output batch (rows × width ×
// 4 B) plus its JSON body plus, per build-side match, 4 B for its one free
// column and 28 B of key table — with one key per match: 4 B of key, 4 B of
// chain, 4 B of bucket end, at most 16 B of open-addressing slots. The joins
// to the twins, keyed by subject with fewer matches (3 000 groups) than rows
// (7 500), are the builds: the star's own steps probe SPO's subject
// directory. The patterns run in textual order, as the planner would join
// the twins first. Grouped, the output is the fold's. Copying
// an intermediate step's rows into a batch of its own, or decoding the
// answer into terms before encoding it, puts the star far past that.
func TestStepAllocatesItsOutput(t *testing.T) {
	g := starGraph(10000)
	var twins []rdf.Triple
	for i := range 10000 {
		twins = append(twins, rdf.NewTriple(e(fmt.Sprint("s", i)), e("grp"), e(fmt.Sprint("g", i%3000))))
	}
	for i := range 3000 {
		for _, twin := range []string{"t", "u"} {
			twins = append(twins, rdf.NewTriple(e(fmt.Sprint("g", i)), e(twin+"win"), e(fmt.Sprint(twin, i))))
		}
	}
	g.AddAll(twins)
	const where = `WHERE { ?s ex:flag ?f ; ex:cat ?c ; ex:val ?v ; ex:grp ?k . ?k ex:twin ?t . ?k ex:uwin ?u . FILTER(?v >= 2500) }`
	for _, c := range []struct {
		name, query string
		grouped     bool
	}{
		{"grouped", `SELECT (COUNT(?s) AS ?n) (COUNT(?c) AS ?cats) (COUNT(?f) AS ?flags) (COUNT(?t) AS ?ts) (COUNT(?u) AS ?us) (SUM(?v) AS ?total) ` + where, true},
		{"select", `SELECT ?s ?f ?c ?v ?t ?u ` + where, false},
	} {
		q := MustParse("PREFIX ex: <http://e/>\n" + c.query)
		var body []byte
		run := func(prof *Profile) *Table {
			tab, err := ExecSelectTable(context.Background(), g, q, Options{Profile: prof, NoReorder: true})
			if err != nil {
				t.Fatal(err)
			}
			body = tab.JSON()
			return tab
		}
		prof := NewProfile("test")
		tab := run(prof) // also warms the block pool
		if c.grouped {
			if n := tab.Results().Get(0, "n").Value; n != "7500" {
				t.Fatalf("%s: COUNT(?s) = %s, want 7500", c.name, n)
			}
		} else if tab.Len() != 7500 {
			t.Fatalf("%s: %d rows, want 7500", c.name, tab.Len())
		}
		const perMatch = 4 + 28 // each hash join here keys on ?k and has one free column
		var built int64
		folded := false
		for _, n := range findProfNodes(prof, "scan") {
			if n.Strategy == strategyHashJoin.String() {
				built += n.EstRows * perMatch
			}
			folded = folded || n.Fold
		}
		if built == 0 || folded != c.grouped {
			t.Fatalf("%s: no hash join ran, or the fold was fed %v:\n%s", c.name, folded, prof.Tree())
		}
		output := int64(0)
		if !c.grouped {
			output = int64(tab.Len() * selectScope(q).width() * 4)
		}
		alloc := leastAllocated(func() { run(nil) })
		if budget := output + built + int64(len(body)); alloc*10 > budget*12 {
			t.Errorf("%s: allocated %d bytes for an output of %d, builds of %d and a body of %d: %.2f× (want ≤ 1.2×)\n%s",
				c.name, alloc, output, built, len(body), float64(alloc)/float64(budget), prof.Tree())
		}
	}
}

// TestSieveAcrossBlocks: sieving the rows written from some row on keeps
// exactly the rows a filter over a flat copy keeps, in order — whether the
// sieved rows start mid-block, span several blocks or empty some of them —
// and the writer goes on writing after its last kept row.
func TestSieveAcrossBlocks(t *testing.T) {
	for _, width := range []int{1, 3, 7, rowBlockIDs + 1} {
		per := max(1, rowBlockIDs/width)
		for _, c := range []struct {
			rows, from int
			keep       func(i int) bool
		}{
			{0, 0, func(int) bool { return false }},
			{3 * per, 0, func(int) bool { return false }},
			{3*per + 5, per / 2, func(i int) bool { return i%3 == 0 }},
			{3*per + 5, per, func(i int) bool { return i > 2*per }},
			{2*per + 1, 1, func(i int) bool { return i == 2*per }},
			{2 * per, per - 1, func(i int) bool { return i%2 == 1 }},
			{per + 1, 0, func(int) bool { return true }},
		} {
			w := rowWriter{width: width}
			row := make([]rdf.ID, width)
			var want []rdf.ID
			for i := 0; i < c.rows; i++ {
				row[0], row[width-1] = rdf.ID(i+1), rdf.ID(i+1)
				w.add(row)
				if i < c.from || c.keep(i) {
					want = append(want, row...)
				}
			}
			w.sieve(c.from, func(r []rdf.ID) bool { return c.keep(int(r[0]) - 1) })
			row[0], row[width-1] = 0, 0
			w.add(row)
			want = append(want, row...)
			label := fmt.Sprintf("width %d, %d rows sieved from %d", width, c.rows, c.from)
			if w.rows != len(want)/width {
				t.Fatalf("%s: %d rows, want %d", label, w.rows, len(want)/width)
			}
			if got := w.batch(); !slices.Equal(got.vals, want) {
				t.Errorf("%s: the rows differ from a flat filter's", label)
			}
		}
	}
}

// leastAllocated returns the least bytes fn allocates in three runs. Under
// the race detector each run is less the blocks the pool had to make for it,
// as sync.Pool drops some of what is put back there; elsewhere a fresh block
// counts, so a block a step leaks instead of handing back shows.
func leastAllocated(fn func()) int64 {
	alloc := int64(math.MaxInt64)
	for range 3 {
		var before, after runtime.MemStats
		made := blocksMade(func() {
			runtime.ReadMemStats(&before)
			fn()
			runtime.ReadMemStats(&after)
		})
		if !raceDetector {
			made = 0
		}
		alloc = min(alloc, int64(after.TotalAlloc-before.TotalAlloc)-int64(made*rowBlockIDs*4))
	}
	return alloc
}

// blocksMade runs fn and returns how many row blocks the pool made for it.
func blocksMade(fn func()) int {
	made, newBlock := 0, rowBlocks.New
	rowBlocks.New = func() any { made++; return newBlock() }
	defer func() { rowBlocks.New = newBlock }()
	fn()
	return made
}

// TestBindYearAllocsPerRow: a strict builtin evaluates its arguments into an
// array on the stack, and the evaluation formats each distinct year once, so
// BIND(YEAR(?d) AS ?y) allocates nothing per row — where it used to allocate
// the year's lexical form, and before that an argument slice as well.
func TestBindYearAllocsPerRow(t *testing.T) {
	const rows = 1000
	ts := make([]rdf.Triple, rows)
	for i := range ts {
		ts[i] = rdf.NewTriple(e(fmt.Sprint("s", i)), e("d"), rdf.NewTyped(fmt.Sprintf("%d-%02d-%02d", 1900+i%120, 1+i%12, 1+i%28), rdf.XSDDate))
	}
	g := rdf.NewGraph()
	g.AddAll(ts)
	q := MustParse(`SELECT ?y WHERE { ?s <http://e/d> ?d BIND(YEAR(?d) AS ?y) }`)
	ev := newEvaluator(context.Background(), g, Options{})
	ev.sc = selectScope(q)
	in := ev.evalGroup(&GroupPattern{Elems: q.Where.Elems[:1]}, unitBatch(ev.sc.width()), nil)
	if in.n() != rows {
		t.Fatalf("%d rows, want %d", in.n(), rows)
	}
	var out *batch
	perRow := testing.AllocsPerRun(5, func() { out = ev.evalBind(q.Where.Elems[1].Bind, in) }) / rows
	y, d := ev.sc.slot("y"), ev.sc.slot("d")
	for i := 0; i < rows; i++ {
		row := out.row(i)
		if year, date := ev.dict.term(row[y]), ev.dict.term(row[d]); year.Datatype != rdf.XSDInteger || !strings.HasPrefix(date.Value, year.Value+"-") {
			t.Fatalf("row %d: YEAR(%v) = %v", i, date, year)
		}
	}
	if perRow > 0.05 {
		t.Errorf("BIND(YEAR(?d)) makes %.2f allocations per row, want ≤ 0.05", perRow)
	}
}

// TestWriteJSONAllocations: encoding a table allocates a constant number of
// times, whatever the row count.
func TestWriteJSONAllocations(t *testing.T) {
	g := starGraph(10000)
	allocsFor := func(limit int) float64 {
		q := MustParse(fmt.Sprintf(`SELECT ?s ?c ?v WHERE { ?s <http://e/cat> ?c ; <http://e/val> ?v } LIMIT %d`, limit))
		tab, err := ExecSelectTable(context.Background(), g, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if tab.Len() != limit {
			t.Fatalf("rows = %d, want %d", tab.Len(), limit)
		}
		return testing.AllocsPerRun(5, func() { tab.JSON() })
	}
	// The slack is the runtime's own bookkeeping when a multi-MB body makes
	// the collector run inside the measured window.
	small, large := allocsFor(100), allocsFor(10000)
	if large > small+4 || large > 32 {
		t.Errorf("JSON() allocates %v times for 100 rows and %v for 10 000; want the same small constant", small, large)
	}
}

// tableOf lays rows of terms out as an answer table over g: a term the graph
// holds gets its ID, any other a scratch ID, as a computed value does.
func tableOf(g *rdf.Graph, vars []string, rows [][]rdf.Term) *Table {
	d := &termDict{g: g, ids: map[rdf.Term]rdf.ID{}}
	b := newBatch(max(1, len(vars)), len(rows))
	for _, row := range rows {
		for j := 0; j < b.width; j++ {
			id := rdf.ID(0)
			if j < len(row) && !row[j].IsZero() {
				id = d.id(row[j])
			}
			b.vals = append(b.vals, id)
		}
	}
	return &Table{Vars: vars, rows: b, g: g, scratch: d.scratch}
}

// TestJSONFillsItsSlice: the size JSON() counts before rendering is the size
// it renders — unbound cells, a repeated variable, every term shape and every
// escape class included, decoded from the graph or from scratch — so the
// body is one allocation with no slack and no regrowth, and it is the bytes
// the term table's writer produced.
func TestJSONFillsItsSlice(t *testing.T) {
	terms := []rdf.Term{
		{}, rdf.NewIRI("http://e/<a>&b"), rdf.NewBlank("b0"), rdf.NewString("tab\t \"q\" \\ \x01 \u2028 caf\u00e9 \xff"),
		rdf.NewLangString("chat", "fr"), rdf.NewInteger(7), rdf.NewTyped("x", "http://e/dt\n"),
	}
	g := rdf.NewGraph()
	for i, term := range terms[1:] {
		if i%2 == 0 { // the others are scratch terms
			g.Add(rdf.NewTriple(e("s"), e("p"), term))
		}
	}
	for rows := 0; rows <= len(terms)+1; rows++ {
		res := &Results{Vars: []string{"b", "a\"", "b", "c"}}
		for i := 0; i < rows; i++ {
			res.Rows = append(res.Rows, []rdf.Term{terms[i%len(terms)], terms[(i+1)%len(terms)], {}, terms[(i+i/len(terms))%len(terms)]})
		}
		body := tableOf(g, res.Vars, res.Rows).JSON()
		if len(body) != cap(body) {
			t.Errorf("%d rows: body of %d bytes in a slice of %d", rows, len(body), cap(body))
		}
		if want := res.JSON(); string(body) != string(want) {
			t.Errorf("%d rows: the table encodes\n%s\nthe term table\n%s", rows, body, want)
		}
		if back, err := ParseJSONResults(strings.NewReader(string(body))); err != nil || back.Len() != rows {
			t.Errorf("%d rows: body does not parse back: %v", rows, err)
		}
	}
}

// TestTableDecodesWithoutTheLock: a table's decoder holds no graph lock — a
// write that grows the dictionary goes through between two of its rows —
// and it decodes every row as it did before the write.
func TestTableDecodesWithoutTheLock(t *testing.T) {
	g := starGraph(1000)
	q := MustParse(`SELECT ?s ?c ?v (?v + 1 AS ?next) WHERE { ?s <http://e/cat> ?c ; <http://e/val> ?v }`)
	tab, err := ExecSelectTable(context.Background(), g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := tab.Results()
	row := tab.Decoder()
	for i := range want.Rows {
		if i == 1 {
			wrote := make(chan struct{})
			go func() {
				defer close(wrote)
				for k := 0; k < 5000; k++ {
					g.Add(rdf.NewTriple(e(fmt.Sprint("new", k)), e("val"), rdf.NewInteger(int64(100000+k))))
				}
			}()
			select {
			case <-wrote:
			case <-time.After(10 * time.Second):
				t.Fatal("a write waited on the table's decoder")
			}
		}
		if got := row(i); !slices.Equal(got, want.Rows[i]) {
			t.Fatalf("row %d decodes as %v after the write, %v before", i, got, want.Rows[i])
		}
	}
}

// TestSortKeepsSliceStablesPermutation: Results.Sort leaves the rows in the
// permutation sort.SliceStable left them in with the same comparison — the
// recorded response digests are of that permutation — and Table.Sort leaves
// the same rows in the same places. It is the same merge sort asking the
// same questions, so this holds even where Term.Less is no strict weak order
// (10 < "9" by value, "9" < 9.5 by value, 9.5 < 10 by number) and "sorted"
// does not name one order.
func TestSortKeepsSliceStablesPermutation(t *testing.T) {
	pool := []rdf.Term{
		{}, e("a"), e("b"), rdf.NewBlank("b0"), rdf.NewString("9"), rdf.NewString("10"), rdf.NewInteger(9), rdf.NewInteger(10),
		rdf.NewDecimal(9.5), rdf.NewLangString("9", "en"), rdf.NewTyped("x", rdf.XSDInteger), rdf.NewTyped("2021-06-01", rdf.XSDDate),
	}
	g := rdf.NewGraph()
	for i, term := range pool[1:] {
		if i%2 == 1 { // the others are scratch terms
			g.Add(rdf.NewTriple(e("s"), e("p"), term))
		}
	}
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{0, 1, 2, 19, 20, 21, 40, 41, 333, 5000} {
		rows := make([][]rdf.Term, n)
		for i := range rows {
			rows[i] = []rdf.Term{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]}
		}
		res := &Results{Vars: []string{"a", "b"}, Rows: slices.Clone(rows)}
		tab := tableOf(g, res.Vars, rows)
		res.Sort()
		tab.Sort()
		sort.SliceStable(rows, func(i, j int) bool {
			for k, a := range rows[i] {
				if b := rows[j][k]; a != b {
					return a.Less(b)
				}
			}
			return false
		})
		sorted := tab.Results().Rows
		for i := range rows {
			if &rows[i][0] != &res.Rows[i][0] {
				t.Fatalf("%d rows: position %d holds %v, sort.SliceStable put %v there", n, i, res.Rows[i], rows[i])
			}
			if !slices.Equal(sorted[i], rows[i]) {
				t.Fatalf("%d rows: Table.Sort put %v at position %d, sort.SliceStable %v", n, sorted[i], i, rows[i])
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
		res, err := ExecSelect(g, q)
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
