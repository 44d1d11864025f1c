package sparql

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"rdfanalytics/internal/rdf"
)

// chunkRecorder keeps what Table.WriteJSON writes and fails on a write
// larger than the chunk it was given or an empty one.
type chunkRecorder struct {
	t     testing.TB
	chunk int
	buf   bytes.Buffer
}

func (r *chunkRecorder) Write(p []byte) (int, error) {
	if len(p) == 0 || len(p) > r.chunk {
		r.t.Fatalf("a write of %d bytes through a chunk of %d", len(p), r.chunk)
	}
	return r.buf.Write(p)
}

// streamed returns what tab.WriteJSON writes through a chunk of size bytes.
func streamed(t testing.TB, tab *Table, size int) []byte {
	t.Helper()
	r := &chunkRecorder{t: t, chunk: max(size, minJSONChunk)}
	if err := tab.WriteJSON(r, make([]byte, 0, size)); err != nil {
		t.Fatal(err)
	}
	return r.buf.Bytes()
}

// streamChunks are the chunk sizes the two sinks are compared at: below the
// minimum, at it, odd ones, and the server's.
var streamChunks = []int{1, minJSONChunk, 97, 1000, 32 << 10}

// checkSinks holds tab's two sinks to each other and to the term table's
// writer (results_ref_test.go), and JSONSize to both.
func checkSinks(t testing.TB, label string, tab *Table) {
	t.Helper()
	res := tab.Results()
	want := res.JSON()
	if body := tab.JSON(); !bytes.Equal(body, want) {
		t.Fatalf("%s: JSON()\n%q\nthe term table\n%q", label, body, want)
	}
	if n := tab.JSONSize(); n != len(want) {
		t.Fatalf("%s: JSONSize() = %d, the body is %d bytes", label, n, len(want))
	}
	for _, size := range streamChunks {
		if got := streamed(t, tab, size); !bytes.Equal(got, want) {
			t.Fatalf("%s: WriteJSON through %d bytes\n%q\nJSON()\n%q", label, size, got, want)
		}
	}
}

// wideValue is one literal wider than the server's chunk, every escape class
// in it, a multi-byte character straddling many cut points.
var wideValue = strings.Repeat("x<&>\"\\\t\x01\u2028café\U0001F600\xff\xe2\x80 ", 2600)

// streamTerms are the cells of the random tables: every term shape, escapes,
// invalid UTF-8 and a value wider than one chunk, the zero Term unbound.
var streamTerms = []rdf.Term{
	{}, {},
	rdf.NewIRI("http://e/<a>&b"), rdf.NewIRI("http://e/café"), rdf.NewBlank("b0"),
	rdf.NewString("tab\t \"q\" \\ \x01 \u2028 \u2029 café \xff \xe2\x80"),
	rdf.NewString(""), rdf.NewLangString("chat", "fr"), rdf.NewLangString("<b>", "en-GB"),
	rdf.NewInteger(7), rdf.NewTyped("x", "http://e/dt\n"), rdf.NewTyped("s", rdf.XSDString),
	rdf.NewString(wideValue), rdf.NewTyped(wideValue[:5000], "http://e/"+wideValue[:3000]),
}

// streamProjections are the random tables' projections: a repeated
// variable, escapes in a name, a nil and an empty projection, and a wide one.
var streamProjections = [][]string{
	{"a", "b", "c"}, {"b", "a\"", "b", "c"}, nil, {}, {"x<&>\u2028"},
	{"v9", "v1", "v8", "v2", "v7", "v3", "v6", "v4", "v5", "v0", "v10", "v11"},
}

// TestWriteJSONMatchesJSON: over seeded random tables — every term shape and
// escape class, invalid UTF-8, unbound cells, a repeated projection
// variable, a nil projection, zero rows and rows wider than one chunk —
// WriteJSON writes, through any chunk, the bytes JSON() returns, which are
// the term table's, and no write is larger than the chunk.
func TestWriteJSONMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := rdf.NewGraph()
	for i, term := range streamTerms {
		if i%2 == 0 && !term.IsZero() { // the others are scratch terms
			g.Add(rdf.NewTriple(e("s"), e("p"), term))
		}
	}
	tables := 0
	for _, vars := range streamProjections {
		for _, rows := range []int{0, 1, 2, 5, 17} {
			cells := make([][]rdf.Term, rows)
			for i := range cells {
				cells[i] = make([]rdf.Term, len(vars))
				for j := range cells[i] {
					cells[i][j] = streamTerms[rng.Intn(len(streamTerms))]
				}
			}
			checkSinks(t, fmt.Sprintf("%q × %d rows", vars, rows), tableOf(g, vars, cells))
			tables++
		}
	}
	t.Logf("%d tables × %d chunk sizes", tables, len(streamChunks))
}

// TestWriteJSONConcurrent: the waiters of one execution stream one table at
// once, racing to make its layout (run under -race); each gets the whole
// body.
func TestWriteJSONConcurrent(t *testing.T) {
	rows := make([][]rdf.Term, 200)
	for i := range rows {
		rows[i] = []rdf.Term{streamTerms[i%len(streamTerms)], rdf.NewInteger(int64(i))}
	}
	tab := tableOf(rdf.NewGraph(), []string{"v", "n"}, rows)
	want := tab.Results().JSON()
	got := make([]bytes.Buffer, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := tab.WriteJSON(&got[i], make([]byte, 0, 1000)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i := range got {
		if !bytes.Equal(got[i].Bytes(), want) {
			t.Errorf("writer %d: %d bytes unlike the term table's %d", i, got[i].Len(), len(want))
		}
	}
}

// TestWriteJSONStopsAtAFailedWrite: the first write error is returned and
// nothing is written after it.
func TestWriteJSONStopsAtAFailedWrite(t *testing.T) {
	tab := tableOf(rdf.NewGraph(), []string{"a"}, [][]rdf.Term{{rdf.NewString(wideValue)}})
	w := &failingWriter{}
	if err := tab.WriteJSON(w, make([]byte, 0, minJSONChunk)); err != errFailedWrite {
		t.Fatalf("WriteJSON = %v, want the writer's error", err)
	}
	if w.writes != 1 {
		t.Errorf("%d writes, want the one that failed", w.writes)
	}
}

var errFailedWrite = fmt.Errorf("write refused")

type failingWriter struct{ writes int }

func (w *failingWriter) Write([]byte) (int, error) {
	w.writes++
	return 0, errFailedWrite
}

// FuzzSelectJSONStream holds WriteJSON, through a chunk of the fuzzer's
// size, to JSON() and to the term table's writer for arbitrary tables:
// names split on ',' (an empty string is a nil projection), one shape byte a
// cell (unbound, IRI, blank node, plain, language-tagged or typed literal)
// whose value, language and datatype come from values split on '|'.
func FuzzSelectJSONStream(f *testing.F) {
	f.Add("a,b", "x|<&>|café", []byte{1, 2, 3, 4, 5, 0}, uint16(64))
	f.Add("b,a\",b", "\xff\xe2\x80|\u2028|en", []byte{3, 3, 4, 5, 0, 1}, uint16(0))
	f.Add("", "", []byte{}, uint16(100))
	f.Add("v", wideValue[:200], []byte{3, 4, 5}, uint16(80))
	f.Fuzz(func(t *testing.T, names, values string, shape []byte, chunk uint16) {
		var vars []string
		if names != "" {
			vars = strings.Split(names, ",")
		}
		vals := strings.Split(values, "|")
		width := max(1, len(vars))
		cells := make([][]rdf.Term, len(shape)/width)
		for i := range cells {
			cells[i] = make([]rdf.Term, len(vars))
			for j := range cells[i] {
				k := i*width + j
				v, note := vals[k%len(vals)], vals[(k+1)%len(vals)]
				switch shape[k] % 6 {
				case 1:
					cells[i][j] = rdf.NewIRI(v)
				case 2:
					cells[i][j] = rdf.NewBlank(v)
				case 3:
					cells[i][j] = rdf.NewString(v)
				case 4:
					cells[i][j] = rdf.NewLangString(v, note)
				case 5:
					cells[i][j] = rdf.NewTyped(v, note)
				}
			}
		}
		tab := tableOf(rdf.NewGraph(), vars, cells)
		want := tab.Results().JSON()
		if body := tab.JSON(); !bytes.Equal(body, want) {
			t.Fatalf("JSON()\n%q\nthe term table\n%q", body, want)
		}
		if got := streamed(t, tab, int(chunk)); !bytes.Equal(got, want) {
			t.Fatalf("WriteJSON through %d bytes\n%q\nJSON()\n%q", chunk, got, want)
		}
	})
}
