package rdf

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// refDict is the dictionary the columnar Dict replaced — a map from term to
// ID plus a slice back — kept verbatim as the reference the oracle graph
// interns into, so a dictionary bug cannot hide behind the code under test.
type refDict struct {
	toID     map[Term]ID
	toTerm   []Term // toTerm[id-1] is the term for id
	literals int    // how many of them are literals, for Stats
}

// newRefDict returns an empty dictionary.
func newRefDict() *refDict {
	return &refDict{toID: make(map[Term]ID)}
}

// Intern returns the ID for t, assigning a fresh one if t is new.
func (d *refDict) Intern(t Term) ID {
	if id, ok := d.toID[t]; ok {
		return id
	}
	d.toTerm = append(d.toTerm, t)
	if t.IsLiteral() {
		d.literals++
	}
	id := ID(len(d.toTerm))
	d.toID[t] = id
	return id
}

// Lookup returns the ID for t, or 0 if t has never been interned.
func (d *refDict) Lookup(t Term) (ID, bool) {
	id, ok := d.toID[t]
	return id, ok
}

// Term returns the term for a valid ID. It panics on an ID the dictionary
// never issued, which always indicates a programming error.
func (d *refDict) Term(id ID) Term {
	return d.toTerm[id-1]
}

// Len returns the number of distinct interned terms.
func (d *refDict) Len() int { return len(d.toTerm) }

// oracleGraph is the graph representation the sorted permutations replaced:
// a set of ID triples plus three map-of-maps indexes, kept here as the
// reference the flat layout is held to. It answers in whatever order its
// maps and slices give; the tests compare sets against it and check the new
// graph's order against its documented contract separately.
type oracleGraph struct {
	dict    *refDict
	triples map[[3]ID]struct{}
	spo     map[ID]map[ID][]ID // subject -> predicate -> objects
	pos     map[ID]map[ID][]ID // predicate -> object -> subjects
	osp     map[ID]map[ID][]ID // object -> subject -> predicates
	psCount map[ID]int         // predicate -> triple count
	version uint64
}

func newOracleGraph() *oracleGraph {
	return &oracleGraph{
		dict:    newRefDict(),
		triples: make(map[[3]ID]struct{}),
		spo:     make(map[ID]map[ID][]ID),
		pos:     make(map[ID]map[ID][]ID),
		osp:     make(map[ID]map[ID][]ID),
		psCount: make(map[ID]int),
	}
}

func (g *oracleGraph) add(t Triple) bool {
	s, p, o := g.dict.Intern(t.S), g.dict.Intern(t.P), g.dict.Intern(t.O)
	if _, dup := g.triples[[3]ID{s, p, o}]; dup {
		return false
	}
	g.triples[[3]ID{s, p, o}] = struct{}{}
	oracleAddIndex(g.spo, s, p, o)
	oracleAddIndex(g.pos, p, o, s)
	oracleAddIndex(g.osp, o, s, p)
	g.psCount[p]++
	g.version++
	return true
}

func oracleAddIndex(idx map[ID]map[ID][]ID, a, b, c ID) {
	inner, ok := idx[a]
	if !ok {
		inner = make(map[ID][]ID)
		idx[a] = inner
	}
	inner[b] = append(inner[b], c)
}

func (g *oracleGraph) remove(t Triple) bool {
	s, ok1 := g.dict.Lookup(t.S)
	p, ok2 := g.dict.Lookup(t.P)
	o, ok3 := g.dict.Lookup(t.O)
	if _, present := g.triples[[3]ID{s, p, o}]; !ok1 || !ok2 || !ok3 || !present {
		return false
	}
	delete(g.triples, [3]ID{s, p, o})
	oracleRemoveIndex(g.spo, s, p, o)
	oracleRemoveIndex(g.pos, p, o, s)
	oracleRemoveIndex(g.osp, o, s, p)
	g.version++
	if g.psCount[p]--; g.psCount[p] == 0 {
		delete(g.psCount, p)
	}
	return true
}

func oracleRemoveIndex(idx map[ID]map[ID][]ID, a, b, c ID) {
	inner := idx[a]
	list := inner[b]
	for i, v := range list {
		if v == c {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			break
		}
	}
	if len(list) == 0 {
		delete(inner, b)
		if len(inner) == 0 {
			delete(idx, a)
		}
	} else {
		inner[b] = list
	}
}

// match returns the triples matching the ID pattern (0 = wildcard), sorted
// ascending in the given permutation's key order.
func (g *oracleGraph) match(s, p, o ID, ord order) []key {
	var out []key
	emit := func(s, p, o ID) { out = append(out, ord.key(s, p, o)) }
	switch {
	case s != 0 && p != 0 && o != 0:
		if _, present := g.triples[[3]ID{s, p, o}]; present {
			emit(s, p, o)
		}
	case s != 0 && p != 0:
		for _, obj := range g.spo[s][p] {
			emit(s, p, obj)
		}
	case s != 0 && o != 0:
		for _, pred := range g.osp[o][s] {
			emit(s, pred, o)
		}
	case p != 0 && o != 0:
		for _, sub := range g.pos[p][o] {
			emit(sub, p, o)
		}
	case s != 0:
		for pred, objs := range g.spo[s] {
			for _, obj := range objs {
				emit(s, pred, obj)
			}
		}
	case p != 0:
		for obj, subs := range g.pos[p] {
			for _, sub := range subs {
				emit(sub, p, obj)
			}
		}
	case o != 0:
		for sub, preds := range g.osp[o] {
			for _, pred := range preds {
				emit(sub, pred, o)
			}
		}
	default:
		for k := range g.triples {
			emit(k[0], k[1], k[2])
		}
	}
	slices.SortFunc(out, key.compare)
	return out
}

// count is the old 8-case count: index lengths and per-predicate counters,
// independent of match.
func (g *oracleGraph) count(s, p, o ID) int {
	switch {
	case s != 0 && p != 0 && o != 0:
		_, present := g.triples[[3]ID{s, p, o}]
		if present {
			return 1
		}
		return 0
	case s != 0 && p != 0:
		return len(g.spo[s][p])
	case s != 0 && o != 0:
		return len(g.osp[o][s])
	case p != 0 && o != 0:
		return len(g.pos[p][o])
	case s != 0:
		n := 0
		for _, objs := range g.spo[s] {
			n += len(objs)
		}
		return n
	case p != 0:
		return g.psCount[p]
	case o != 0:
		n := 0
		for _, preds := range g.osp[o] {
			n += len(preds)
		}
		return n
	}
	return len(g.triples)
}

func (g *oracleGraph) stats() Stats {
	st := Stats{Triples: len(g.triples), Terms: g.dict.Len(), Subjects: len(g.spo), Predicates: len(g.psCount)}
	for _, t := range g.dict.toTerm {
		if t.IsLiteral() {
			st.Literals++
		}
	}
	if typeID, ok := g.dict.Lookup(NewIRI(RDFType)); ok {
		st.Classes = len(g.pos[typeID])
	}
	return st
}

func (g *oracleGraph) predicates() []Term {
	out := make([]Term, 0, len(g.psCount))
	for p := range g.psCount {
		out = append(out, g.dict.Term(p))
	}
	SortTerms(out)
	return out
}

// ---- the differential ----

// opTriple maps three bytes to one of a few terms per position, rdf:type among the
// predicates so Stats.Classes is exercised, so that random ops collide:
// duplicate adds, removes of present triples, re-adds of tombstoned ones.
func opTriple(a, b, c byte) Triple {
	p := ex(fmt.Sprintf("p%d", b%5))
	if b%5 == 4 {
		p = NewIRI(RDFType)
	}
	var o Term = ex(fmt.Sprintf("s%d", c%23)) // objects overlap subjects
	if c%3 == 0 {
		o = NewInteger(int64(c % 29))
	}
	return Triple{ex(fmt.Sprintf("s%d", a%37)), p, o}
}

// isBigBatch says which batch opcodes (one in 32 of them) carry a bigBatch.
func isBigBatch(code byte) bool { return code == 0xFF }

// bigBatch derives from an op's three bytes a batch that AddAll sorts in
// instead of inserting: more than maxDelta triples, a quarter of them from
// four thousand only batches add (new keys and new terms, or present since an
// earlier batch), a quarter repeats from the batch itself, and the rest from
// opTriple's few thousand — which the single ops around it leave in base,
// pending in the delta, tombstoned there, or absent.
func bigBatch(a, b, c byte) []Triple {
	rng := rand.New(rand.NewSource(int64(a)<<16 | int64(b)<<8 | int64(c)))
	batch := make([]Triple, maxDelta+1+rng.Intn(maxDelta))
	for i := range batch {
		switch rng.Intn(4) {
		case 0:
			batch[i] = Triple{ex(fmt.Sprintf("b%d", rng.Intn(100))), ex(fmt.Sprintf("p%d", rng.Intn(5))), NewInteger(int64(rng.Intn(8)))}
		case 1:
			batch[i] = batch[rng.Intn(i+1)]
		}
		if batch[i] == (Triple{}) {
			batch[i] = opTriple(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
	}
	return batch
}

// journalLog records what a graph's journal hook was called with.
type journalLog []string

func (l *journalLog) hook(op JournalOp, t Triple, version uint64) {
	*l = append(*l, fmt.Sprintf("%d %v %d", op, t, version))
}

// hookOn is hook for the journal of g, checking the write-ahead promise on
// the way: when the journal hears of a change, no index has it yet. (The
// journal runs under the write lock, so it reads the index without locking.)
func (l *journalLog) hookOn(t testing.TB, g *Graph) func(JournalOp, Triple, uint64) {
	return func(op JournalOp, tr Triple, version uint64) {
		s, p, o, known := g.resolve(tr.S, tr.P, tr.O)
		if live := known && g.ix[spo].has(key{s, p, o}); live != (op == JournalRemove) {
			t.Errorf("journal called with op %d of %v at version %d while the triple's presence is %v", op, tr, version, live)
		}
		l.hook(op, tr, version)
	}
}

// runOps applies an op stream — three bytes of triple and one of opcode per
// op — to a Graph and the oracle, checking after every op that both agree
// on the op's result, after every op that rewrote the base arrays that the
// directories agree with bisection, and at checkpoints that they hold the
// same graph.
func runOps(t testing.TB, ops []byte, checkEvery int) (*Graph, *oracleGraph) {
	g, want := NewGraph(), newOracleGraph()
	var got, expect journalLog
	g.SetJournal(got.hookOn(t, g))
	for i := 0; i+4 <= len(ops); i += 4 {
		tr := opTriple(ops[i], ops[i+1], ops[i+2])
		switch code := ops[i+3] % 8; {
		case code < 4: // add
			ok := want.add(tr)
			if ok {
				expect.hook(JournalAdd, tr, want.version)
			}
			if g.Add(tr) != ok {
				t.Fatalf("op %d: Add(%v) = %v, oracle %v", i/4, tr, !ok, ok)
			}
		case code < 7: // remove
			ok := want.remove(tr)
			if ok {
				expect.hook(JournalRemove, tr, want.version)
			}
			if g.Remove(tr) != ok {
				t.Fatalf("op %d: Remove(%v) = %v, oracle %v", i/4, tr, !ok, ok)
			}
		default: // a batch: the triple and two neighbours, or one past maxDelta
			batch := []Triple{tr, opTriple(ops[i]+1, ops[i+1], ops[i+2]), opTriple(ops[i], ops[i+1]+1, ops[i+2]+1)}
			if isBigBatch(ops[i+3]) {
				batch = bigBatch(ops[i], ops[i+1], ops[i+2])
			}
			n := 0
			for _, b := range batch {
				if want.add(b) {
					expect.hook(JournalAdd, b, want.version)
					n++
				}
			}
			if got := g.AddAll(batch); got != n {
				t.Fatalf("op %d: AddAll = %d, oracle %d", i/4, got, n)
			}
		}
		if _, present := want.triples[[3]ID{mustLookup(want.dict, tr.S), mustLookup(want.dict, tr.P), mustLookup(want.dict, tr.O)}]; g.Has(tr) != present {
			t.Fatalf("op %d: Has(%v) = %v, oracle %v", i/4, tr, !present, present)
		}
		if g.Version() != want.version {
			t.Fatalf("op %d: version %d, oracle %d", i/4, g.Version(), want.version)
		}
		if len(g.ix[spo].delta) == 0 { // a merge or a bulk load rewrote base
			checkDirectory(t, g, fmt.Sprintf("op %d", i/4))
		}
		if checkEvery > 0 && (i/4)%checkEvery == 0 {
			checkSameGraph(t, g, want)
		}
	}
	checkSameGraph(t, g, want)
	if !slices.Equal(got, expect) {
		t.Fatalf("journal saw %d calls, want %d (effective mutations only, each with the version it establishes)\ngot  %v\nwant %v", len(got), len(expect), got, expect)
	}
	return g, want
}

func mustLookup(d *refDict, t Term) ID {
	id, _ := d.Lookup(t)
	return id
}

// checkSameGraph holds g to the oracle on every read: all eight pattern
// shapes of MatchIDs / MatchCountIDs / Match / MatchCount around a sample of
// triples (same set, same count, ascending order of the documented
// permutation), Len, Predicates, SubjectIDs and Stats. Both were fed the
// same terms in the same order, so their dictionaries assign the same IDs.
func checkSameGraph(t testing.TB, g *Graph, want *oracleGraph) {
	t.Helper()
	checkDirectory(t, g, "oracle check")
	if g.Len() != len(want.triples) {
		t.Fatalf("Len = %d, oracle %d", g.Len(), len(want.triples))
	}
	if got, exp := g.Stats(), want.stats(); got != exp {
		t.Fatalf("Stats = %+v, oracle %+v", got, exp)
	}
	if got, exp := g.Predicates(), want.predicates(); !slices.Equal(got, exp) {
		t.Fatalf("Predicates = %v, oracle %v", got, exp)
	}
	var subjects []ID
	for s := range want.spo {
		subjects = append(subjects, s)
	}
	slices.Sort(subjects)
	if got := g.SubjectIDs(); !slices.Equal(got, subjects) {
		t.Fatalf("SubjectIDs = %v, oracle %v", got, subjects)
	}
	// Patterns around some forty triples and two that are likely absent.
	last := ID(want.dict.Len())
	if last == 0 {
		return
	}
	probes := [][3]ID{{1, min(2, last), min(3, last)}, {last, 1, 1}}
	all := want.match(0, 0, 0, spo)
	for i := 0; i < len(all); i += len(all)/40 + 1 {
		probes = append(probes, [3]ID(all[i]))
	}
	for i, k := range probes {
		for mask := 0; mask < 8; mask++ {
			if mask == 7 && i > 0 {
				continue // the all-wildcard scan once is enough
			}
			pat := k
			for c := range pat {
				if mask&(1<<c) != 0 {
					pat[c] = 0
				}
			}
			ord, _, _ := accessPath(pat[0], pat[1], pat[2])
			exp := want.match(pat[0], pat[1], pat[2], ord)
			var got []key
			g.MatchIDs(pat[0], pat[1], pat[2], func(s, p, o ID) bool {
				got = append(got, ord.key(s, p, o))
				return true
			})
			if !slices.Equal(got, exp) {
				t.Fatalf("MatchIDs%v in %v order:\ngot  %v\nwant %v", pat, ord, got, exp)
			}
			if n := g.MatchCountIDs(pat[0], pat[1], pat[2]); n != want.count(pat[0], pat[1], pat[2]) || n != len(exp) {
				t.Fatalf("MatchCountIDs%v = %d, oracle %d, %d matched", pat, n, want.count(pat[0], pat[1], pat[2]), len(exp))
			}
			var terms [3]Term
			for c, id := range pat {
				if terms[c] = Any; id != 0 {
					terms[c] = want.dict.Term(id)
				}
			}
			i := 0
			g.Match(terms[0], terms[1], terms[2], func(tr Triple) bool {
				s, p, o := ord.triple(exp[i][0], exp[i][1], exp[i][2])
				if want := (Triple{g.TermOf(s), g.TermOf(p), g.TermOf(o)}); tr != want {
					t.Fatalf("Match%v yields %v at %d, want %v (the order of MatchIDs)", pat, tr, i, want)
				}
				i++
				return true
			})
			if n := g.MatchCount(terms[0], terms[1], terms[2]); i != len(exp) || n != len(exp) {
				t.Fatalf("Match%v yielded %d, MatchCount %d, want %d", pat, i, n, len(exp))
			}
		}
	}
	// MatchIDsEach over (0, p, o) patterns in no order — objects repeated and
	// absent, more than one block of them, subject-bound ones among them —
	// yields what MatchIDs yields for each pattern called in order, and stops
	// where fn does.
	var block [][3]ID
	for _, k := range probes {
		block = append(block, [3]ID{0, k[1], k[2]}, [3]ID{0, k[1], k[0]}, [3]ID{k[0], k[1], 0})
	}
	block = append(block, block[:7]...)
	rand.New(rand.NewSource(int64(len(all)))).Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	var each, one [][4]ID
	for i, q := range block {
		g.MatchIDs(q[0], q[1], q[2], func(s, p, o ID) bool {
			one = append(one, [4]ID{ID(i), s, p, o})
			return true
		})
	}
	for _, stop := range []int{len(one), len(one) / 2} {
		each = each[:0]
		g.MatchIDsEach(block, func(i int, s, p, o ID) bool {
			each = append(each, [4]ID{ID(i), s, p, o})
			return len(each) < stop
		})
		if stop > 0 && !slices.Equal(each, one[:stop]) {
			t.Fatalf("MatchIDsEach over %d patterns, stopped after %d matches, yields %d matches, not those of MatchIDs in order", len(block), stop, len(each))
		}
	}
}

// expand is base as the keys it stands for, each word under the first
// component its directory gives it: the one way the tests read a base array.
func (ix *index) expand() []key {
	out := make([]key, 0, len(ix.base))
	for i := range ix.dir.len() {
		for _, w := range ix.base[ix.dir.at[i]:ix.dir.at[i+1]] {
			out = append(out, unpack(ix.dir.lead(i), w))
		}
	}
	return out
}

// directoryMismatch holds both directories — SPO's, indexed by subject, and
// POS's list of predicates — to bisection: each must cover its base array
// with runs that expand to strictly ascending keys, and for every ID up to
// two past the dictionary's last — absent values, empty runs and IDs past
// the largest among them — the run the directory finds must be the span a
// search of the expanded keys finds. SPO's ends one past the largest subject,
// and POS's lists exactly the predicates with a run. It describes the first
// difference, or returns "" when there is none. The caller holds the read
// lock or owns the graph.
func directoryMismatch(g *Graph) string {
	for ord := range g.ix {
		ix := &g.ix[ord]
		d, ks := &ix.dir, ix.expand()
		switch {
		case d.byID != (ord == int(spo)):
			return fmt.Sprintf("%v: indexed by ID is %v", order(ord), d.byID)
		case len(d.at) == 0 || d.at[0] != 0 || int(d.at[d.len()]) != len(ix.base) || len(ks) != len(ix.base):
			return fmt.Sprintf("%v: the directory does not cover the %d words of base", order(ord), len(ix.base))
		case !slices.IsSortedFunc(ks, func(a, b key) int { return cmp.Or(a.compare(b), -1) }): // strictly: a repeat counts as a descent
			return fmt.Sprintf("%v: the directory's runs expand to keys out of order", order(ord))
		}
		if d.byID {
			want := 1
			if n := len(ks); n > 0 {
				want = int(ks[n-1][0]) + 2
			}
			if d.vals != nil || len(d.at) != want {
				return fmt.Sprintf("%v: the directory has %d entries, want %d", order(ord), len(d.at), want)
			}
		} else {
			var leads []ID
			for i, k := range ks {
				if i == 0 || k[0] != ks[i-1][0] {
					leads = append(leads, k[0])
				}
			}
			if !slices.Equal(d.vals, leads) || len(d.at) != len(leads)+1 {
				return fmt.Sprintf("%v: the directory lists %v (%d entries), the base %v", order(ord), d.vals, len(d.at), leads)
			}
		}
		for v := ID(0); int(v) <= g.dict.Len()+2; v++ {
			lo, hi := d.run(v)
			if wlo, whi := span(ks, key{v}, 1); lo != wlo || hi != whi {
				return fmt.Sprintf("%v: %d: the directory finds base[%d:%d], bisection base[%d:%d]", order(ord), v, lo, hi, wlo, whi)
			}
		}
	}
	return ""
}

func checkDirectory(t testing.TB, g *Graph, when string) {
	t.Helper()
	if msg := directoryMismatch(g); msg != "" {
		t.Fatalf("%s: %s", when, msg)
	}
}

// randomOps is a seeded op stream of n ops.
func randomOps(seed int64, n int) []byte {
	ops := make([]byte, 4*n)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

// TestGraphAgainstOracle: seeded random op sequences, long enough to cross
// the merge threshold several times with tombstones and re-adds pending.
func TestGraphAgainstOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g, want := runOps(t, randomOps(seed, 6*maxDelta), 1021)
		// A snapshot round-trip holds the same graph, base arrays only, and so
		// does a clone — Stats' literal count, which the dictionary keeps
		// instead of recounting, included.
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		checkSameGraph(t, back, want)
		if st := g.Stats(); st.Literals == 0 || back.Stats() != st || g.Clone().Stats() != st {
			t.Fatalf("Stats = %+v, after a round-trip %+v, of a clone %+v", st, back.Stats(), g.Clone().Stats())
		}
	}
}

// TestMergeAtEveryDeltaSize forces the merge with 0, 1, 2, … maxDelta
// pending changes — additions, tombstones, re-adds of tombstoned triples and
// cancelled pairs among them — then lets the graph cross the threshold on its
// own, and checks every read against the oracle before and after each merge.
func TestMergeAtEveryDeltaSize(t *testing.T) {
	g, want := runOps(t, randomOps(9, 400), 0) // a base to change
	for ord := range g.ix {
		g.ix[ord].merge()
	}
	rng := rand.New(rand.NewSource(10))
	change := func() {
		// Toggle a triple of opTriple's few thousand: the graph stays about
		// half of them, so adds and removes are equally often effective.
		tr := opTriple(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		if g.Has(tr) {
			if !g.Remove(tr) || !want.remove(tr) {
				t.Fatalf("Remove(%v) of a present triple refused", tr)
			}
		} else if !g.Add(tr) || !want.add(tr) {
			t.Fatalf("Add(%v) of an absent triple refused", tr)
		}
	}
	checked := func(size int) bool { return size <= 4 || size%97 == 0 || size >= maxDelta-1 }
	for size := 0; size <= maxDelta; size++ {
		for len(g.ix[spo].delta) < size {
			change()
		}
		if checked(size) {
			checkSameGraph(t, g, want)
		}
		for ord := range g.ix {
			if len(g.ix[ord].delta) != size {
				t.Fatalf("size %d: %v delta holds %d", size, order(ord), len(g.ix[ord].delta))
			}
			g.ix[ord].merge()
			if !slices.IsSortedFunc(g.ix[ord].expand(), key.compare) || len(g.ix[ord].base) != g.Len() || len(g.ix[ord].delta) != 0 {
				t.Fatalf("size %d: %v base is not the sorted live set after merge", size, order(ord))
			}
		}
		checkDirectory(t, g, fmt.Sprintf("merged at %d pending changes", size))
		if checked(size) {
			checkSameGraph(t, g, want)
		}
	}
	for merges, last := 0, 0; merges < 2; last = len(g.ix[spo].delta) {
		change()
		if len(g.ix[spo].delta) < last-1 { // a cancelled pair shrinks it by one; a merge empties it
			merges++
			if last != maxDelta || len(g.ix[spo].delta) != 0 {
				t.Fatalf("merged at %d pending changes leaving %d, want at %d leaving 0", last, len(g.ix[spo].delta), maxDelta)
			}
			checkSameGraph(t, g, want)
		}
	}
}

// TestSubjectDirectory holds both directories — SPO's by subject, POS's list
// of predicates — to bisection (directoryMismatch) through every write to the
// base arrays: seeded random Add, Remove and AddAll — batches past maxDelta
// sorted in — with merges forced at random delta sizes, a clone, which must
// not share its directories with its source, and a snapshot round trip.
// The writer checks the directories under its lock after every op that
// rewrote the base arrays — each forced merge, each AddAll, each write that
// merged — including a squeeze that leaves base's length as it was.
// Meanwhile two readers probe: one checks the directories under the read
// lock whenever it finds the delta empty at a version it has not checked,
// the other probes subject- and predicate-bound patterns through
// MatchIDsEach (run it with -race).
func TestSubjectDirectory(t *testing.T) {
	g, want := NewGraph(), newOracleGraph()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			checked := uint64(0) // the version at which the directories were last checked
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if r == 0 {
					g.mu.RLock()
					msg := ""
					if len(g.ix[spo].delta) == 0 && g.version != checked { // a merge or a bulk load rewrote base
						checked, msg = g.version, directoryMismatch(g)
					}
					g.mu.RUnlock()
					if msg != "" {
						t.Error(msg)
						return
					}
					continue
				}
				pats := [][3]ID{{ID(i%50 + 1), 0, 0}, {ID(i%50 + 2), ID(i%9 + 1), 0}, {ID(i%50 + 3), ID(i%9 + 1), ID(i%40 + 1)}, {0, ID(i%9 + 1), 0}, {0, ID(i%9 + 2), ID(i%40 + 1)}}
				prev := [5]key{}
				g.MatchIDsEach(pats, func(j int, s, p, o ID) bool {
					q := pats[j]
					ord, _, _ := accessPath(q[0], q[1], q[2])
					k := ord.key(s, p, o)
					if q[0] != 0 && s != q[0] || q[1] != 0 && p != q[1] || q[2] != 0 && o != q[2] || prev[j] != (key{}) && prev[j].compare(k) >= 0 {
						t.Errorf("pattern %v yields %v after %v", q, k, prev[j])
						return false
					}
					prev[j] = k
					return true
				})
			}
		}(r)
	}
	stopped := false
	stopReaders := func() {
		if !stopped {
			stopped = true
			close(stop)
			wg.Wait()
		}
	}
	defer stopReaders() // a failing writer leaves no reader behind
	// forceMerge merges both permutations; the caller holds the write lock.
	forceMerge := func() {
		for ord := range g.ix {
			g.ix[ord].merge()
		}
	}
	rng := rand.New(rand.NewSource(12))
	mergeAt := 1 + rng.Intn(maxDelta)
	for i := 0; i < 6*maxDelta; i++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		pending := len(g.ix[spo].delta)
		op := rng.Intn(100)
		switch {
		case op == 0:
			batch := bigBatch(a, b, c)
			for _, tr := range batch {
				want.add(tr)
			}
			g.AddAll(batch)
		case op < 55:
			tr := opTriple(a, b, c)
			if g.Add(tr) != want.add(tr) {
				t.Fatalf("Add(%v) disagrees with the oracle", tr)
			}
		default:
			tr := opTriple(a, b, c)
			if g.Remove(tr) != want.remove(tr) {
				t.Fatalf("Remove(%v) disagrees with the oracle", tr)
			}
		}
		g.mu.Lock()
		rewritten := op == 0 || len(g.ix[spo].delta) < pending-1 // a cancelled pair shrinks the delta by one; a merge empties it
		if len(g.ix[spo].delta) >= mergeAt {
			forceMerge()
			mergeAt, rewritten = 1+rng.Intn(maxDelta), true
		}
		msg := ""
		if rewritten {
			msg = directoryMismatch(g)
		}
		g.mu.Unlock()
		if msg != "" {
			t.Fatalf("op %d: %s", i, msg)
		}
	}
	// A merge that squeezes out as many triples as it inserts leaves base's
	// length as it was and still moves runs in both arrays: the first and
	// last subjects' triples go, as many under a new subject and predicate
	// come.
	g.mu.Lock()
	forceMerge()
	g.mu.Unlock()
	live := g.Triples()
	for i, tr := range live {
		if tr.S == live[0].S || tr.S == live[len(live)-1].S {
			add := Triple{ex("zzSwapped"), ex("zzSwapPredicate"), NewInteger(int64(i))}
			g.Remove(tr)
			want.remove(tr)
			g.Add(add)
			want.add(add)
		}
	}
	g.mu.Lock()
	before := len(g.ix[spo].base)
	forceMerge()
	msg, after := directoryMismatch(g), len(g.ix[spo].base)
	g.mu.Unlock()
	if before != after || msg != "" {
		t.Fatalf("a merge of as many removals as additions: base %d → %d words: %s", before, after, msg)
	}
	stopReaders()
	checkSameGraph(t, g, want)

	clone := g.Clone()
	checkDirectory(t, clone, "clone")
	g.Add(Triple{ex("zzNewest"), ex("zzNewPredicate"), ex("s1")}) // the largest subject and predicate IDs so far
	all := clone.Triples()
	for _, tr := range all {
		if tr.S == all[0].S || tr.P == all[0].P { // a subject's and a predicate's last triples go
			clone.Remove(tr)
		}
	}
	for _, h := range []*Graph{g, clone} {
		for ord := range h.ix {
			h.ix[ord].merge()
		}
	}
	checkDirectory(t, g, "source after its clone changed")
	checkDirectory(t, clone, "clone after its source changed")

	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkDirectory(t, back, "snapshot round trip")
	for ord := range g.ix {
		if a, b := back.ix[ord].dir, g.ix[ord].dir; !slices.Equal(a.vals, b.vals) || !slices.Equal(a.at, b.at) {
			t.Errorf("the restored %v directory differs from its source's", order(ord))
		}
	}
}

// enumeration lists what every pattern shape around every triple yields, in
// order, as terms — comparable across graphs with different histories as
// long as their dictionaries agree.
func enumeration(g *Graph) []string {
	var out []string
	var all [][3]ID
	g.MatchIDs(0, 0, 0, func(s, p, o ID) bool {
		all = append(all, [3]ID{s, p, o})
		return true
	})
	for i, k := range all {
		for mask := 0; mask < 8; mask++ {
			if mask == 7 && i > 0 {
				continue // the all-wildcard scan once is enough
			}
			pat := k
			for c := range pat {
				if mask&(1<<c) != 0 {
					pat[c] = 0
				}
			}
			line := fmt.Sprint(pat, ":")
			g.MatchIDs(pat[0], pat[1], pat[2], func(s, p, o ID) bool {
				line += fmt.Sprint(" ", s, p, o)
				return true
			})
			out = append(out, line)
		}
	}
	return out
}

// TestEnumerationIsContentDefined: the order a pattern enumerates in is a
// function of the triples and the dictionary, not of how the graph came to
// hold them. G, its snapshot round-trip, and G after inserting and deleting
// a scratch triple (what the benchmark's facet-sessions does before every
// round) enumerate identically for every pattern; so does a graph given the
// same triples in another order after the same terms.
func TestEnumerationIsContentDefined(t *testing.T) {
	ops := randomOps(5, 1500)
	for i := 3; i < len(ops); i += 4 {
		if isBigBatch(ops[i]) {
			ops[i] = 7 // a small batch: enumeration is quadratic in the graph
		}
	}
	g, _ := runOps(t, ops, 0)
	want := enumeration(g)

	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := enumeration(back); !slices.Equal(got, want) {
		t.Error("ReadBinary(WriteBinary(G)) enumerates differently from G")
	}

	// The scratch triple reuses interned terms, so the dictionary stays put.
	all := g.Triples()
	scratch := all[0]
	for _, tr := range all {
		if rev := (Triple{tr.O, tr.P, tr.S}); tr.O.IsResource() && !g.Has(rev) {
			scratch = rev
			break
		}
	}
	if !g.Add(scratch) || !g.Remove(scratch) {
		t.Fatalf("scratch triple %v not insertable and removable", scratch)
	}
	if got := enumeration(g); !slices.Equal(got, want) {
		t.Error("inserting and deleting a scratch triple changed the enumeration")
	}

	// Same dictionary, triples inserted in reverse.
	rev := NewGraph()
	for id := 1; id <= g.TermCount(); id++ {
		rev.dict.Intern(g.TermOf(ID(id)))
	}
	for i := len(all) - 1; i >= 0; i-- {
		rev.Add(all[i])
	}
	if got := enumeration(rev); !slices.Equal(got, want) {
		t.Error("insertion order changed the enumeration")
	}
}

// TestScansDuringMerges runs scanners against a writer that crosses the merge
// threshold several times (run it with -race -count=10): a scan holds the
// read lock from its searches to its last callback, so whatever the writer
// is doing to the arrays, each scan sees one state — ascending, duplicate
// free, the untouched triples all there, its count equal to its length.
func TestScansDuringMerges(t *testing.T) {
	g := NewGraph()
	fixed, churn := ex("fixed"), ex("churn")
	const stable = 300
	for i := 0; i < stable; i++ {
		g.Add(Triple{ex(fmt.Sprintf("s%d", i%50)), fixed, NewInteger(int64(i))})
	}
	fixedID, _ := g.TermID(fixed)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			pat := [][3]ID{{0, fixedID, 0}, {0, 0, 0}, {1, 0, 0}, {0, 0, 2}}[r]
			ord, _, _ := accessPath(pat[0], pat[1], pat[2])
			for {
				select {
				case <-stop:
					return
				default:
				}
				var prev key
				n, ofFixed := 0, 0
				g.MatchIDs(pat[0], pat[1], pat[2], func(s, p, o ID) bool {
					k := ord.key(s, p, o)
					if n > 0 && prev.compare(k) >= 0 {
						t.Errorf("scan %v out of order: %v then %v", pat, prev, k)
						return false
					}
					if p == fixedID {
						ofFixed++
					}
					prev = k
					n++
					return true
				})
				if r < 2 && ofFixed != stable {
					t.Errorf("scan %v saw %d of the %d untouched triples", pat, ofFixed, stable)
				}
				if r == 0 && g.MatchCountIDs(pat[0], pat[1], pat[2]) != stable {
					t.Errorf("count of the untouched predicate moved")
				}
			}
		}(r)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < maxDelta+maxDelta/2; i++ {
			g.Add(Triple{ex(fmt.Sprintf("s%d", i%50)), churn, NewInteger(int64(i))})
		}
		for i := 0; i < maxDelta+maxDelta/2; i++ {
			g.Remove(Triple{ex(fmt.Sprintf("s%d", i%50)), churn, NewInteger(int64(i))})
		}
	}
	close(stop)
	wg.Wait()
	if g.Len() != stable {
		t.Errorf("Len = %d after the churn, want %d", g.Len(), stable)
	}
}

// TestAddAllAtTheBoundary holds AddAll to a loop of Add on both sides of the
// batch size at which it stops inserting and sorts: the same count, snapshot
// bytes (so the same dictionary IDs and arrays), version, statistics and
// journal calls, from an empty graph, from a merged base, from a half-full
// delta with tombstones in it, and with a dictionary wide enough that the
// batch is sorted by comparison. A reader scans throughout (run it with
// -race): it sees the graph before the batch or after it, ascending.
func TestAddAllAtTheBoundary(t *testing.T) {
	universe := func(i int) Triple {
		return Triple{ex(fmt.Sprintf("s%d", i%97)), ex(fmt.Sprintf("p%d", i%7)), NewInteger(int64(i))}
	}
	starts := []struct {
		name  string
		build func(t *testing.T, g *Graph)
	}{
		{"empty graph", func(*testing.T, *Graph) {}},
		{"empty delta", func(_ *testing.T, g *Graph) {
			for i := 0; i < 2000; i++ {
				g.Add(universe(i))
			}
			for ord := range g.ix {
				g.ix[ord].merge()
			}
		}},
		{"half-full delta", func(t *testing.T, g *Graph) {
			for i := 0; i < 2000; i++ {
				g.Add(universe(i))
			}
			for ord := range g.ix {
				g.ix[ord].merge()
			}
			for i := 0; i < maxDelta/4; i++ {
				g.Add(universe(2000 + i))
				g.Remove(universe(3 * i))
			}
			if n := len(g.ix[spo].delta); n != maxDelta/2 {
				t.Fatalf("delta holds %d changes, want %d", n, maxDelta/2)
			}
		}},
		{"wide dictionary", func(_ *testing.T, g *Graph) {
			for i := 0; i < 2000; i++ {
				g.Add(universe(i))
			}
			for i := 0; i < 16*3*maxDelta; i++ {
				g.dict.Intern(ex(fmt.Sprintf("orphan%d", i)))
			}
		}},
	}
	for _, start := range starts {
		for _, size := range []int{maxDelta - 1, maxDelta, maxDelta + 1, 3 * maxDelta} {
			t.Run(fmt.Sprintf("%s/%d", start.name, size), func(t *testing.T) {
				// Indexes below 2000 are in base (the first few hundred perhaps
				// tombstoned), the next 256 perhaps pending, the rest new; drawing
				// with replacement repeats some.
				rng := rand.New(rand.NewSource(int64(size)))
				batch := make([]Triple, size)
				for i := range batch {
					batch[i] = universe(rng.Intn(4000))
				}
				all, one := NewGraph(), NewGraph()
				start.build(t, all)
				start.build(t, one)
				var gotLog, wantLog journalLog
				all.SetJournal(gotLog.hookOn(t, all))
				one.SetJournal(wantLog.hook)
				before := all.Len()

				want := 0
				for _, tr := range batch {
					if one.Add(tr) {
						want++
					}
				}
				stop, done := make(chan struct{}), make(chan struct{})
				go func() {
					defer close(done)
					for {
						select {
						case <-stop:
							return
						default:
						}
						var prev key
						n := 0
						all.MatchIDs(0, 0, 0, func(s, p, o ID) bool {
							if k := (key{s, p, o}); n > 0 && prev.compare(k) >= 0 {
								t.Errorf("scan out of order: %v then %v", prev, k)
								return false
							} else {
								prev = k
							}
							n++
							return true
						})
						if n != before && n != before+want {
							t.Errorf("scan saw %d triples, want %d (before the batch) or %d (after)", n, before, before+want)
						}
					}
				}()
				got := all.AddAll(batch)
				close(stop)
				<-done

				if got != want {
					t.Errorf("AddAll = %d, a loop of Add %d", got, want)
				}
				if all.Version() != one.Version() {
					t.Errorf("Version = %d, a loop of Add %d", all.Version(), one.Version())
				}
				if all.Stats() != one.Stats() {
					t.Errorf("Stats = %+v, a loop of Add %+v", all.Stats(), one.Stats())
				}
				if !slices.Equal(gotLog, wantLog) {
					t.Errorf("journal saw %d calls, a loop of Add %d, or in another order", len(gotLog), len(wantLog))
				}
				var a, b bytes.Buffer
				if err := all.WriteBinary(&a); err != nil {
					t.Fatal(err)
				}
				if err := one.WriteBinary(&b); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a.Bytes(), b.Bytes()) {
					t.Error("WriteBinary differs from a loop of Add")
				}
				for ord := range all.ix {
					if ks := all.ix[ord].expand(); size > maxDelta && (len(all.ix[ord].delta) != 0 || len(ks) != all.Len() || !slices.IsSortedFunc(ks, key.compare)) {
						t.Errorf("%v: a sorted-in batch left %d pending, base %d of %d triples", order(ord), len(all.ix[ord].delta), len(ks), all.Len())
					}
				}
			})
		}
	}
}

// FuzzGraphOps feeds arbitrary op bytes to the graph and the oracle.
func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 4, 1, 2, 3, 0})
	f.Add(randomOps(3, 300))
	f.Add(randomOps(4, maxDelta+50))
	f.Add(append(randomOps(5, maxDelta/2), 7, 7, 7, 0xFF, 1, 2, 3, 5, 9, 9, 9, 0xFF))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*4*maxDelta {
			return
		}
		for i, big := 3, 0; i < len(ops); i += 4 {
			if isBigBatch(ops[i]) {
				if big++; big > 8 { // each costs the oracle a few thousand map inserts
					return
				}
			}
		}
		runOps(t, ops, 1021)
	})
}
