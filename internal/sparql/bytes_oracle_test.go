package sparql_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"rdfanalytics/internal/conformance"
	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

// The byte oracle: testdata/select_bytes.golden holds, for every SELECT of
// the conformance corpus and for 200 seeded random queries over a
// datagen.Products graph, the length and SHA-256 of the exact
// Results.WriteJSON output as recorded *before* the evaluator moved to
// fixed-width ID rows. One digest pins the rows, their order, the SELECT *
// variable discovery and the serializer at once; the test demands byte
// equality. Every entry is the engine's own order
// ("raw"): since property paths emit in ascending node-ID order no SELECT is
// left whose order had to be fixed by Results.Sort first.
//
//	go test ./internal/sparql -run TestSelectBytesOracle -update-bytes   # re-record
//	go test ./internal/sparql -run TestSelectBytesOracle -dump-bytes DIR # write actual bodies

var (
	updateBytes = flag.Bool("update-bytes", false, "re-record testdata/select_bytes.golden from the current engine")
	dumpBytes   = flag.String("dump-bytes", "", "directory to write every actual WriteJSON body into")
)

const (
	bytesGolden     = "testdata/select_bytes.golden"
	corpusRoot      = "../conformance/testdata"
	randomQueries   = 200
	oracleRowBudget = 4000
)

type bytesCase struct {
	kind, name string // kind: corpus|random
	size       int
	sum        string
	query      string // random cases only; corpus cases read query.rq
}

func productsOracleGraph() *rdf.Graph {
	return datagen.Products(datagen.ProductsConfig{Laptops: 60, Companies: 6, Seed: 3})
}

// selectBytes runs the query and returns the WriteJSON body.
func selectBytes(g *rdf.Graph, src string) ([]byte, error) {
	q, err := sparql.Parse(src)
	if err != nil {
		return nil, err
	}
	if q.Form != sparql.FormSelect {
		return nil, fmt.Errorf("not a SELECT")
	}
	res, err := sparql.ExecSelectOpts(g, q, sparql.Options{
		Limits: sparql.Limits{MaxIntermediateRows: oracleRowBudget},
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func corpusSelects(t *testing.T) []conformance.Case {
	t.Helper()
	cases, err := conformance.LoadCases(corpusRoot)
	if err != nil {
		t.Fatal(err)
	}
	var out []conformance.Case
	for _, c := range cases {
		if c.Expect == "expect.srj" {
			out = append(out, c)
		}
	}
	return out
}

func loadCorpusCase(t *testing.T, name string) (*rdf.Graph, string) {
	t.Helper()
	dir := filepath.Join(corpusRoot, filepath.FromSlash(name))
	data, err := os.ReadFile(filepath.Join(dir, "data.ttl"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := rdf.LoadTurtleString(string(data))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	query, err := os.ReadFile(filepath.Join(dir, "query.rq"))
	if err != nil {
		t.Fatal(err)
	}
	return g, string(query)
}

func TestSelectBytesOracle(t *testing.T) {
	if *updateBytes {
		recordBytesGolden(t)
	}
	cases := readBytesGolden(t)
	recorded, nRandom := map[string]bool{}, 0
	for _, c := range cases {
		if c.kind == "corpus" {
			recorded[c.name] = true
		} else {
			nRandom++
		}
	}
	for _, c := range corpusSelects(t) {
		// The COUNT(DISTINCT *) case pins a bug the old engine had: its
		// bytes were never the right ones to record.
		if name := c.Category + "/" + c.Name; !recorded[name] && name != "aggregates/count-distinct-star" {
			t.Errorf("corpus SELECT %s has no recorded bytes", name)
		}
	}
	if nRandom != randomQueries {
		t.Fatalf("golden holds %d random queries, want %d", nRandom, randomQueries)
	}
	products := productsOracleGraph()
	for _, c := range cases {
		g, query := products, c.query
		if c.kind == "corpus" {
			g, query = loadCorpusCase(t, c.name)
		}
		got, err := selectBytes(g, query)
		if err != nil {
			t.Errorf("%s %s: %v", c.kind, c.name, err)
			continue
		}
		if *dumpBytes != "" {
			path := filepath.Join(*dumpBytes, strings.ReplaceAll(c.kind+"_"+c.name, "/", "_")+".srj")
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if len(got) != c.size || digest(got) != c.sum {
			head := got
			if len(head) > 400 {
				head = head[:400]
			}
			t.Errorf("%s %s: body differs from the recorded bytes: %d bytes, recorded %d\nquery: %s\nbody starts: %s",
				c.kind, c.name, len(got), c.size, query, head)
		}
	}
}

func readBytesGolden(t *testing.T) []bytesCase {
	t.Helper()
	f, err := os.Open(bytesGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []bytesCase
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) < 5 || f[2] != "raw" {
			t.Fatalf("malformed golden line %q", line)
		}
		size, err := strconv.Atoi(f[3])
		if err != nil {
			t.Fatalf("malformed golden line %q: %v", line, err)
		}
		c := bytesCase{kind: f[0], name: f[1], size: size, sum: f[4]}
		if c.kind == "random" {
			if len(f) != 6 {
				t.Fatalf("random golden line without query: %q", line)
			}
			if c.query, err = strconv.Unquote(f[5]); err != nil {
				t.Fatalf("malformed golden line %q: %v", line, err)
			}
		}
		out = append(out, c)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// stableBytes runs the query repeatedly and reports the body and whether
// every run produced the same bytes.
func stableBytes(g *rdf.Graph, query string) ([]byte, bool, error) {
	var first []byte
	for run := 0; run < 4; run++ {
		b, err := selectBytes(g, query)
		if err != nil {
			return nil, false, err
		}
		if first == nil {
			first = b
		} else if !bytes.Equal(first, b) {
			return nil, false, nil
		}
	}
	return first, true, nil
}

func recordBytesGolden(t *testing.T) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("# kind\tname\tmode\tbytes\tsha256\t[query] — recorded by go test -run TestSelectBytesOracle -update-bytes\n")
	record := func(kind, name string, g *rdf.Graph, query string) bool {
		body, stable, err := stableBytes(g, query)
		if err != nil {
			return false
		}
		if !stable {
			t.Fatalf("%s %s: output differs between runs", kind, name)
		}
		fmt.Fprintf(&sb, "%s\t%s\traw\t%d\t%s", kind, name, len(body), digest(body))
		if kind == "random" {
			sb.WriteString("\t" + strconv.Quote(query))
		}
		sb.WriteByte('\n')
		return true
	}
	for _, c := range corpusSelects(t) {
		name := c.Category + "/" + c.Name
		g, query := loadCorpusCase(t, name)
		if !record("corpus", name, g, query) {
			t.Fatalf("corpus case %s does not evaluate", name)
		}
	}
	products := productsOracleGraph()
	gen := newQueryGen(products, 271)
	for n := 0; n < randomQueries; {
		if record("random", fmt.Sprintf("q%03d", n), products, gen.next()) {
			n++
		}
	}
	if err := os.MkdirAll(filepath.Dir(bytesGolden), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bytesGolden, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// queryGen is the TestParallelDifferentialRandom generator moved onto a real
// graph: one to three random triple patterns, each drawn from a triple of
// the graph with some positions turned into variables, wrapped in one of a
// dozen query shapes so every operator and modifier sees random input. The
// source triples of one query are connected (they share a term) and equal
// terms get the same variable, so the plain BGP always has a solution.
type queryGen struct {
	rng     *rand.Rand
	triples []rdf.Triple
	touch   map[rdf.Term][]int // term -> triples holding it as subject or object
	trial   int
}

func newQueryGen(g *rdf.Graph, seed int64) *queryGen {
	ts := g.Triples()
	sort.Slice(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
	qg := &queryGen{rng: rand.New(rand.NewSource(seed)), triples: ts, touch: map[rdf.Term][]int{}}
	for i, tr := range ts {
		qg.touch[tr.S] = append(qg.touch[tr.S], i)
		qg.touch[tr.O] = append(qg.touch[tr.O], i)
	}
	return qg
}

// patterns renders n connected triples as triple patterns.
func (qg *queryGen) patterns(n int) []string {
	pool := []string{"?a", "?b", "?c", "?d"}
	named := map[rdf.Term]string{}
	node := func(t rdf.Term, pVar float64) string {
		if v, ok := named[t]; ok {
			return v
		}
		if qg.rng.Float64() < pVar && len(named) < len(pool) {
			named[t] = pool[len(named)]
			return named[t]
		}
		return t.String()
	}
	out := make([]string, n)
	tr := qg.triples[qg.rng.Intn(len(qg.triples))]
	for i := range out {
		out[i] = node(tr.S, 0.8) + " " + node(tr.P, 0.15) + " " + node(tr.O, 0.7) + " ."
		near := append(append([]int(nil), qg.touch[tr.S]...), qg.touch[tr.O]...)
		tr = qg.triples[near[qg.rng.Intn(len(near))]]
	}
	return out
}

func (qg *queryGen) next() string {
	pats := qg.patterns(1 + qg.rng.Intn(3))
	bgp := strings.Join(pats, " ")
	rest := strings.Join(pats[1:], " ")
	last := pats[len(pats)-1]
	shape := qg.trial % 12
	qg.trial++
	switch shape {
	case 0:
		return "SELECT * WHERE { " + bgp + " }"
	case 1:
		return "SELECT DISTINCT ?a ?b WHERE { " + bgp + " }"
	case 2:
		return "SELECT ?a (COUNT(*) AS ?n) (COUNT(DISTINCT ?b) AS ?m) WHERE { " + bgp + " } GROUP BY ?a"
	case 3:
		return "SELECT * WHERE { " + pats[0] + " OPTIONAL { " + rest + " } }"
	case 4:
		return "SELECT * WHERE { { " + pats[0] + " } UNION { " + last + " } }"
	case 5:
		return "SELECT ?a ?b WHERE { " + bgp + " } ORDER BY DESC(?b) ?a LIMIT 20 OFFSET 3"
	case 6:
		return "SELECT * WHERE { " + bgp + " FILTER(?a != ?b || isLiteral(?c)) }"
	case 7:
		return "SELECT ?a ?s ?c WHERE { " + bgp + " BIND(STR(?a) AS ?s) } ORDER BY ?s"
	case 8:
		return "SELECT * WHERE { " + pats[0] + " MINUS { " + last + " } }"
	case 9:
		return "SELECT ?a (SUM(?b) AS ?s) (MIN(?b) AS ?lo) (MAX(?b) AS ?hi) (AVG(?b) AS ?av) (SAMPLE(?c) AS ?sm) (GROUP_CONCAT(?d) AS ?gc) WHERE { " +
			bgp + " } GROUP BY ?a HAVING (COUNT(*) > 0) ORDER BY DESC(COUNT(*)) ?a"
	case 10:
		return "SELECT * WHERE { { SELECT ?a (COUNT(*) AS ?n) WHERE { " + pats[0] + " } GROUP BY ?a } " + rest + " }"
	default:
		return "SELECT ?a ?b ?x WHERE { VALUES ?x { 1 2 } " + bgp + " FILTER(BOUND(?a)) } LIMIT 300"
	}
}
