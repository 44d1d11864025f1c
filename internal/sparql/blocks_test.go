package sparql

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rdfanalytics/internal/rdf"
)

// Tests for the step output path (join.go, rows.go): rows written into
// fixed-size blocks and copied once into an exact-size batch. The other
// differentials run on graphs that never fill a block; these make step
// outputs end on, just before and just after a block edge.

// blockCase is one step-output shape: a set of member hubs — the step's input
// rows — and how many fan triples each has, the step's output rows.
type blockCase struct {
	name     string
	strategy string // the join type the fan step must run as
	fans     []int  // per member, in input-row order
	// outsider fan triples hang off a non-member: they raise the pattern's
	// count (which picks the strategy) and never reach the output.
	outsider int
}

func (c blockCase) rows() int {
	n := 0
	for _, f := range c.fans {
		n += f
	}
	return n
}

// blockCases are the step outputs of one row width, perBlock rows to a block:
// none, one row short of a block, exactly a block, one row over — produced by
// two neighbouring input rows, every other partition producing nothing — and
// several blocks in the last partition after a few rows per input row in the
// others. A hash join needs the pattern's count within
// hashBuildFactor × its input, an index loop needs it above.
func blockCases(perBlock int) []blockCase {
	fans := func(members, rest int, at ...int) []int {
		f := make([]int, members)
		for i := range f {
			f[i] = rest
		}
		for i := 0; i < len(at); i += 2 {
			f[at[i]] = at[i+1]
		}
		return f
	}
	var cases []blockCase
	for _, strategy := range []string{"index loop", "hash join"} {
		hash := strategy == "hash join"
		members := func(out int) int {
			if hash {
				return max(parallelThreshold, out/hashBuildFactor+1)
			}
			return parallelThreshold
		}
		add := func(name string, f []int, outsider int) {
			cases = append(cases, blockCase{name: name, strategy: strategy, fans: f, outsider: outsider})
		}
		if hash {
			add("empty", fans(parallelThreshold, 0), parallelThreshold+1)
		} else {
			add("empty", fans(parallelThreshold, 0), parallelThreshold*hashBuildFactor+1)
		}
		for _, out := range []int{perBlock - 1, perBlock, perBlock + 1} {
			add(fmt.Sprintf("block%+d", out-perBlock), fans(members(out), 0, 3, out-3, 4, 3), 0)
		}
		if hash {
			add("several", fans(perBlock, 1, perBlock-1, 2*perBlock+5), 0)
		} else {
			add("several", fans(parallelThreshold, 5, parallelThreshold-1, 2*perBlock+5), 0)
		}
	}
	return cases
}

// blockGraph holds every case under predicates of its own; the cases share
// the fan triples' objects.
func blockGraph(cases []blockCase) *rdf.Graph {
	total := 0
	for _, c := range cases {
		total += len(c.fans) + c.rows() + c.outsider
	}
	ts := make([]rdf.Triple, 0, total)
	var leaves []rdf.Term
	for ci, c := range cases {
		set, fan := e(fmt.Sprint("set", ci)), e(fmt.Sprint("fan", ci))
		leaf := 0
		hang := func(hub rdf.Term, n int) {
			for ; n > 0; n-- {
				if leaf == len(leaves) {
					leaves = append(leaves, e(fmt.Sprint("leaf", leaf)))
				}
				ts = append(ts, rdf.NewTriple(hub, fan, leaves[leaf]))
				leaf++
			}
		}
		for h, f := range c.fans {
			hub := e(fmt.Sprintf("hub%d_%d", ci, h))
			ts = append(ts, rdf.NewTriple(hub, e("in"), set))
			hang(hub, f)
		}
		hang(e(fmt.Sprint("outsider", ci)), c.outsider)
	}
	g := rdf.NewGraph()
	g.AddAll(ts)
	return g
}

// blockQuery joins case ci's members with their fan triples in rows of the
// given width: ?h and ?f (which width 1 leaves without a slot) plus constant
// padding columns. The fan pattern comes first in the text, so textual order
// (NoReorder) produces the rows from one input row and the cost-based order
// from the members.
func blockQuery(width, ci int) string {
	body := fmt.Sprintf(`?h <http://e/fan%[1]d> ?f . ?h <http://e/in> <http://e/set%[1]d>`, ci)
	if width == 1 {
		return `SELECT ?h WHERE { ` + body + ` }`
	}
	var vars, vals []string
	for k := 1; k <= width-2; k++ {
		vars, vals = append(vars, fmt.Sprint("?c", k)), append(vals, fmt.Sprint(k))
	}
	values := ""
	if len(vars) > 0 {
		values = fmt.Sprintf(`VALUES (%s) { (%s) } `, strings.Join(vars, " "), strings.Join(vals, " "))
	}
	return `SELECT * WHERE { ` + values + body + ` }`
}

// stepBlockDigests are, per row width and strategy, the SHA-256 over the
// WriteJSON bodies of the five cases in order, recorded at the commit where a
// step still grew its output by append.
var stepBlockDigests = map[string]string{
	"width 1 hash join":  "cbfdabc57bcc5cfb0c909e913b8208c032f2a38375fa2ee454a38dfd76a78fbb",
	"width 1 index loop": "aa8fa516de88261613bd0e3b2d4f1ef2aa49fc8c76a42c35bf1d91117a42caf8",
	"width 2 hash join":  "ff98eafb8ffb2d2da071b114c9c467f518485017e253691d3245e8a50b765075",
	"width 2 index loop": "b181aee67d8ce455bf1a87fb2295fa63b30f4ef43e617dd05eb68b3d28910ffb",
	"width 3 hash join":  "c6695a85d08d83fd0e9a4d3de728dbad6be936b3a125c692894fcab2f3cd66b3",
	"width 3 index loop": "882124d3d3b3bdd6894f86fdc4eef864fa9800dfc095ccab5e09c45d98f33cc5",
	"width 4 hash join":  "01e74bcbcd15558442cdd35581327e1c5355d2fc7bf2c49d244d29d733a2f311",
	"width 4 index loop": "4e58020fe3e29a4e8aa403487471a098361655f268453b40560291f05313a817",
	"width 5 hash join":  "3b9922bff1f5dcab10684aba451e13ecd1c6c81a12eaa6a827613a6d023390a3",
	"width 5 index loop": "ce7cbc31bac26fcf29fa16d8f12d48afc1a62e0b03bcf98ec9d02e6a1d7b6b9d",
	"width 6 hash join":  "30e17f8ca584bbe8921305e09cb917d9cc16092b94cb9bc6c37b3ee49768c0bb",
	"width 6 index loop": "934add67c93988f7291fae1b5180b58a25a922eff3f7566935842c98ddb8af69",
	"width 7 hash join":  "b65e9af12ef8e559c89da45c80879d551c394f5021c43bd81fd705d062b820ba",
	"width 7 index loop": "37c0e167cf8cd17e15f822786b84040fe1c9f92942518a317e25624be9077e6c",
	"width 8 hash join":  "a23eb974d6abcf34924e0c875cc38965999bcb8bf76f02291fd730e9d04668a4",
	"width 8 index loop": "cf34abe2c0138ac3e4515a6b9d67b23ffc461e34205f8bb6c68e0cee36344614",
	"width 9 hash join":  "ce7b7aa75301b89a1e48e3892e159ec6390b9b416cf16d737b393c365cbd8cee",
	"width 9 index loop": "f4d895c57f872d176182d9da218066dae4103e82b8bef1082883c354ed5dc13e",
}

// TestStepOutputAcrossBlocks: step outputs that end around a block edge, and
// one spanning several blocks of a partition, serialize to the recorded bytes
// — sequentially, and the same rows in the same order from 2 and 8 workers —
// and are the rows textual order produces.
func TestStepOutputAcrossBlocks(t *testing.T) {
	for width := 1; width <= 9; width++ {
		cases := blockCases(rowBlockIDs / width)
		g := blockGraph(cases)
		sums := map[string]hash.Hash{}
		for ci, c := range cases {
			q := MustParse(blockQuery(width, ci))
			if got := selectScope(q).width(); got != width {
				t.Fatalf("width %d %s: scope is %d wide", width, c.name, got)
			}
			name := fmt.Sprintf("width %d %s", width, c.strategy)
			var seq *Results
			for _, par := range []int{1, 2, 8} {
				label := fmt.Sprintf("%s %s parallelism %d", name, c.name, par)
				prof := NewProfile("test")
				res, err := ExecSelectOpts(g, q, Options{Parallelism: par, Profile: prof})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if res.Len() != c.rows() {
					t.Fatalf("%s: %d rows, want %d", label, res.Len(), c.rows())
				}
				if !fanStepRan(prof.root, c) {
					t.Fatalf("%s: no %s step from %d rows to %d:\n%s", label, c.strategy, len(c.fans), c.rows(), prof.Tree())
				}
				if par == 1 {
					seq = res
					continue
				}
				for i, row := range res.Rows {
					if !slices.Equal(row, seq.Rows[i]) {
						t.Fatalf("%s: row %d is %v, sequentially %v", label, i, row, seq.Rows[i])
					}
				}
			}
			if sums[name] == nil {
				sums[name] = sha256.New()
			}
			sums[name].Write(seq.JSON())
			ref, err := ExecSelectOpts(g, q, Options{NoReorder: true, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(renderedRows(seq), renderedRows(ref)) {
				t.Errorf("%s %s: rows differ from textual order's", name, c.name)
			}
		}
		for name, sum := range sums {
			if got := hex.EncodeToString(sum.Sum(nil)); got != stepBlockDigests[name] {
				t.Errorf("%s: bodies hash to %s, recorded %s", name, got, stepBlockDigests[name])
			}
		}
	}
}

// renderedRows is the result as a multiset: every row rendered, sorted.
func renderedRows(res *Results) []string {
	out := make([]string, len(res.Rows))
	var buf []byte
	for i, row := range res.Rows {
		buf = buf[:0]
		for _, t := range row {
			buf = append(append(buf, t.String()...), 0)
		}
		out[i] = string(buf)
	}
	slices.Sort(out)
	return out
}

// fanStepRan reports whether the profile holds the case's step: a scan of the
// expected strategy from one row per member to one row per fan triple.
func fanStepRan(n *ProfNode, c blockCase) bool {
	if n.Op == "scan" && n.Strategy == c.strategy && n.RowsIn == int64(len(c.fans)) && n.RowsOut == int64(c.rows()) {
		return true
	}
	for _, ch := range n.children {
		if fanStepRan(ch, c) {
			return true
		}
	}
	return false
}

// TestKilledStepHandsBackItsBlocks: a step killed while it holds blocks — by
// the row budget, then by a deadline that may fall anywhere in it — leaves
// nothing behind that the next query could see. The same query, unbounded,
// returns the sequential rows each time; under -race a block put back while a
// worker still wrote to it would show as well.
func TestKilledStepHandsBackItsBlocks(t *testing.T) {
	const width = 3
	perBlock := rowBlockIDs / width
	cases := blockCases(perBlock)
	g := blockGraph(cases)
	for ci, c := range cases {
		if c.name != "several" {
			continue
		}
		q := MustParse(blockQuery(width, ci))
		want, err := ExecSelectOpts(g, q, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 8} {
			rerun := func(after string) {
				t.Helper()
				res, err := ExecSelectOpts(g, q, Options{Parallelism: par})
				if err != nil {
					t.Fatalf("%s, parallelism %d, after %s: %v", c.strategy, par, after, err)
				}
				assertSameResults(t, fmt.Sprintf("%s, parallelism %d, after %s", c.strategy, par, after), want, res)
			}
			_, err := ExecSelectOpts(g, q, Options{Parallelism: par, Limits: Limits{MaxIntermediateRows: perBlock + perBlock/2}})
			if !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("%s, parallelism %d: want ErrBudgetExceeded, got %v", c.strategy, par, err)
			}
			rerun("a budget kill")
			for _, d := range []time.Duration{20 * time.Microsecond, 100 * time.Microsecond, 400 * time.Microsecond, 2 * time.Millisecond} {
				ctx, cancel := context.WithTimeout(context.Background(), d)
				res, err := ExecSelectCtx(ctx, g, q, Options{Parallelism: par})
				cancel()
				if err == nil {
					assertSameResults(t, fmt.Sprintf("%s, parallelism %d, inside %s", c.strategy, par, d), want, res)
				} else if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("%s, parallelism %d, deadline %s: %v", c.strategy, par, d, err)
				}
				rerun("a deadline of " + d.String())
			}
		}
	}
}

// TestHashBuildMatchesReference: the build side holds every match of the
// pattern once, and a key's chain is its matches in MatchIDs order — with
// duplicate keys, a repeated variable, no join variable (a cross product), two
// of them, and a scan that finds more than the count the build was sized by.
func TestHashBuildMatchesReference(t *testing.T) {
	var ts []rdf.Triple
	for i := 0; i < 400; i++ {
		s := e(fmt.Sprint("s", i%37))
		ts = append(ts, rdf.NewTriple(s, e("p"), e(fmt.Sprint("o", i%11))), rdf.NewTriple(s, e("p"), e(fmt.Sprint("o", i%13))))
		if i%5 == 0 {
			ts = append(ts, rdf.NewTriple(s, e("p"), s)) // ?x p ?x
		}
	}
	g := rdf.NewGraph()
	g.AddAll(ts)
	for _, c := range []struct {
		name, pattern string
		joinPos       []int
	}{
		{"duplicate keys", "?s <http://e/p> ?o", []int{0}},
		{"keyed by object", "?s <http://e/p> ?o", []int{2}},
		{"two join variables", "?s <http://e/p> ?o", []int{0, 2}},
		{"cross product", "?s <http://e/p> ?o", nil},
		{"repeated variable", "?x <http://e/p> ?x", []int{0}},
		{"repeated variable, cross product", "?x <http://e/p> ?x", nil},
	} {
		q := MustParse("SELECT * WHERE { " + c.pattern + " }")
		for _, late := range []int{0, 300} {
			ev := newEvaluator(context.Background(), g, Options{})
			ev.sc = selectScope(q)
			pp := &ev.planRun([]*TriplePattern{q.Where.Elems[0].Triple}).pats[0]
			// Triples that arrive after the count the plan took.
			for i := 0; i < late; i++ {
				s := e(fmt.Sprint("late", c.name, i%7))
				g.Add(rdf.NewTriple(s, e("p"), e(fmt.Sprint("o", i))))
				g.Add(rdf.NewTriple(s, e("p"), s))
			}
			label := fmt.Sprintf("%s, %d late inserts", c.name, late)
			ht := ev.buildHashRun(pp, c.joinPos, nil)
			if repeated := pp.slot[0] == pp.slot[2]; late > 0 && !repeated && len(ht.matches) <= pp.baseEst {
				t.Fatalf("%s: the scan found %d matches, no more than the %d the build was sized by", label, len(ht.matches), pp.baseEst)
			}
			checkHashRun(t, label, g, pp, ht, true)
		}
	}
	// The same while inserts race the scan: what the graph held when the scan
	// ran is unknown, what a chain must look like is not.
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
				g.Add(rdf.NewTriple(e(fmt.Sprint("racing", i%50)), e("p"), e(fmt.Sprint("o", i))))
			}
		}
	}()
	q := MustParse("SELECT * WHERE { ?s <http://e/p> ?o }")
	for i := 0; i < 50; i++ {
		ev := newEvaluator(context.Background(), g, Options{})
		ev.sc = selectScope(q)
		pp := &ev.planRun([]*TriplePattern{q.Where.Elems[0].Triple}).pats[0]
		checkHashRun(t, "racing inserts", g, pp, ev.buildHashRun(pp, []int{0}, nil), false)
	}
	close(stop)
	wg.Wait()
}

// checkHashRun holds a build side to its invariants — every match in exactly
// one chain, under its own key, chains in scan order — and, when the graph is
// quiescent, to the pattern's matches as MatchIDs enumerates them now.
func checkHashRun(t *testing.T, label string, g *rdf.Graph, pp *patPlan, ht *hashRun, quiescent bool) {
	t.Helper()
	keyOf := func(m [3]rdf.ID) (key [3]rdf.ID) {
		for k, pos := range ht.joinPos {
			key[k] = m[pos]
		}
		return key
	}
	chained := 0
	got := map[[3]rdf.ID][][3]rdf.ID{}
	for b := 0; b < ht.keys.count; b++ {
		var key [3]rdf.ID
		copy(key[:], ht.keys.tuple(b))
		last, prev := ht.last[b], int32(-1)
		for i := ht.next[last]; ; i = ht.next[i] {
			if i <= prev {
				t.Fatalf("%s: bucket %d chains match %d after match %d", label, b, i, prev)
			}
			if keyOf(ht.matches[i]) != key {
				t.Fatalf("%s: match %v chained under key %v", label, ht.matches[i], key)
			}
			got[key] = append(got[key], ht.matches[i])
			prev = i
			chained++
			if i == last {
				break
			}
		}
	}
	if chained != len(ht.matches) {
		t.Fatalf("%s: %d matches, %d of them in a chain", label, len(ht.matches), chained)
	}
	if !quiescent {
		return
	}
	want := map[[3]rdf.ID][][3]rdf.ID{}
	g.MatchIDs(pp.ids[0], pp.ids[1], pp.ids[2], func(s, p, o rdf.ID) bool {
		if m := [3]rdf.ID{s, p, o}; !pp.sameVarDiffers([3]rdf.ID{}, m) {
			want[keyOf(m)] = append(want[keyOf(m)], m)
		}
		return true
	})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: chains differ from the pattern's matches in MatchIDs order (%d keys built, %d expected)", label, len(got), len(want))
	}
}

// TestRowWiderThanABlock: a row that no pooled block can hold (a query with
// more than rowBlockIDs variables) gets blocks of its own.
func TestRowWiderThanABlock(t *testing.T) {
	w := rowWriter{width: rowBlockIDs + 1}
	row := make([]rdf.ID, w.width)
	for i := rdf.ID(1); i <= 3; i++ {
		row[0], row[len(row)-1] = i, i
		w.add(row)[1] = 7
	}
	out := w.batch()
	if out.n() != 3 || cap(out.vals) != 3*out.width {
		t.Fatalf("%d rows in a batch with room for %d IDs, want 3 rows and no slack", out.n(), cap(out.vals))
	}
	for i := 0; i < 3; i++ {
		if r := out.row(i); r[0] != rdf.ID(i+1) || r[1] != 7 || r[len(r)-1] != rdf.ID(i+1) {
			t.Errorf("row %d reads %d, %d … %d", i, r[0], r[1], r[len(r)-1])
		}
	}
}
