package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
)

// A step under a constant predicate that the strategy rule sends to a hash
// join runs as an index loop instead (evaluator.probes) when it is keyed by
// its object and writes few rows per key, through POS's (p, o) runs, or by
// its subject with no fewer matches than input rows, through SPO's subject
// directory; a step with no join variable replays one scan of its pattern
// per row (crossRun). The test below holds each loop to the hash join's row
// sequence on every step either could run, whatever its counts.

// TestDirectoryProbeMatchesHashJoin plans seeded random stars and chains —
// some joined to a further pattern by an object, some to one they share no
// variable with — and walks their steps as runTriples does. At every step
// keyed by subject or by object under a constant predicate, and at every
// step with no join variable, it runs the index loop (nestedLoopRun: the
// directory probe, the object probe; crossRun: the replay) and the hash join
// (buildHashRun + probeHashRun) on the same input rows, and requires the
// same rows in the same sequence, and that both or neither stop at the row
// budget. Only a step that neither stopped counts toward the floors. The
// graphs are the products graph and an adversarial one, each with additions
// pending and tombstones in the delta.
func TestDirectoryProbeMatchesHashJoin(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *rdf.Graph
	}{
		{"products", datagen.Products(datagen.ProductsConfig{Laptops: 300, Companies: 6, Seed: 1})},
		{"adversarial", directoryGraph()},
	} {
		rng := rand.New(rand.NewSource(1))
		if c.name == "products" {
			rdf.Materialize(c.g)
		}
		pendChanges(c.g, rng)
		all := c.g.Triples()
		of := map[rdf.Term][]rdf.Triple{}
		for _, tr := range all {
			of[tr.S] = append(of[tr.S], tr)
		}
		var steps, rows [3]int // subject-keyed, object-keyed, cross products
		for i := 0; i < 600; i++ {
			compareIndexSteps(t, c.g, randomJoin(rng, all, of), rng.Intn(3) == 0, &steps, &rows)
		}
		t.Logf("%s: %v steps compared (subject-keyed, object-keyed, cross products), writing %v rows", c.name, steps, rows)
		for k, want := range []struct {
			kind        string
			steps, rows int
		}{{"subject-keyed steps", 200, 100000}, {"object-keyed steps", 40, 40000}, {"cross products", 30, 50000}} {
			if steps[k] < want.steps || rows[k] < want.rows {
				t.Errorf("%s: only %d %s compared, writing %d rows", c.name, steps[k], want.kind, rows[k])
			}
		}
	}
}

// directoryGraph is adversarial to a subject directory: subjects that are
// also objects, blank subjects, self loops, subjects with no value or many
// under a predicate, predicates in subject position, and the largest IDs
// issued to objects.
func directoryGraph() *rdf.Graph {
	g := rdf.NewGraph()
	add := func(s, p, o rdf.Term) { g.Add(rdf.NewTriple(s, p, o)) }
	node := func(i int) rdf.Term {
		if i%7 == 3 {
			return rdf.NewBlank(fmt.Sprint("b", i))
		}
		return e(fmt.Sprint("n", i))
	}
	for i := 0; i < 300; i++ {
		s := node(i)
		add(s, e("p0"), node(i*13%300))
		if i%5 == 0 {
			add(s, e("p0"), s)
		}
		for k := 0; k < i%9; k++ {
			add(s, e("p1"), rdf.NewInteger(int64(k*i%11)))
		}
		if i%3 == 0 {
			add(s, e("p2"), node((i+1)%300))
			add(e("p1"), e("p2"), s)
		}
	}
	for i := 0; i < 40; i++ {
		add(node(i), e("p2"), rdf.NewString(fmt.Sprint("last", i)))
	}
	return g
}

// pendChanges leaves the graph with a few hundred pending changes, fewer than
// a merge takes: tombstones for random triples and for every triple of a few
// subjects, additions of values to existing subjects, and new subjects, the
// last of them the largest subject ID.
func pendChanges(g *rdf.Graph, rng *rand.Rand) {
	all := g.Triples()
	for i := 0; i < 150; i++ {
		g.Remove(all[rng.Intn(len(all))])
	}
	for i := 0; i < 3; i++ {
		s := all[rng.Intn(len(all))].S
		g.Match(s, rdf.Any, rdf.Any, func(tr rdf.Triple) bool {
			all = append(all, tr) // Remove after the scan: Match holds the read lock
			return true
		})
	}
	for _, tr := range all[len(all)-min(len(all), 200):] {
		g.Remove(tr)
	}
	for i := 0; i < 200; i++ {
		tr := all[rng.Intn(len(all))]
		if i%4 == 0 {
			tr.S = e(fmt.Sprint("pending", i))
		}
		tr.O = all[rng.Intn(len(all))].O
		g.Add(tr)
	}
}

// randomJoin is a star on ?x, a chain from ?x, or both, drawn from a walk
// over the graph's triples so that most of them match something: a star's
// predicates are those of one subject, a chain's follow an object to its
// own triples. A pattern's last object is a fresh variable, one mentioned
// nowhere else (no slot), the subject itself, or a constant the graph holds.
// A third of the joins gain a pattern under a random predicate that shares
// the chain's last object, which that predicate may never have; half of
// them one that shares no variable.
func randomJoin(rng *rand.Rand, all []rdf.Triple, of map[rdf.Term][]rdf.Triple) string {
	var pats, proj []string
	fresh := 0
	object := func(subject string, last bool) string {
		switch r := rng.Intn(10); {
		case r == 0:
			return subject
		case r < 3:
			return all[rng.Intn(len(all))].O.String()
		case r < 5 && !last:
			fresh++
			return fmt.Sprint("?u", fresh) // mentioned once: no slot
		}
		fresh++
		v := fmt.Sprint("?v", fresh)
		proj = append(proj, v)
		return v
	}
	pick := func(ts []rdf.Triple) rdf.Triple { return ts[rng.Intn(len(ts))] }
	start := pick(all).S
	proj = append(proj, "?x")
	shape := rng.Intn(3)
	if shape != 1 { // a star
		for k := 1 + rng.Intn(4); k > 0; k-- {
			pats = append(pats, fmt.Sprintf("?x %s %s", pick(of[start]).P, object("?x", false)))
		}
	}
	if shape != 0 { // a chain
		from, at := "?x", pick(of[start])
		for k := rng.Intn(3); k > 0 && len(of[at.O]) > 0; k-- {
			fresh++
			to := fmt.Sprint("?c", fresh)
			proj = append(proj, to)
			pats = append(pats, fmt.Sprintf("%s %s %s", from, at.P, to))
			from, at = to, pick(of[at.O])
		}
		last := object(from, true)
		pats = append(pats, fmt.Sprintf("%s %s %s", from, at.P, last))
		if strings.HasPrefix(last, "?v") && rng.Intn(3) == 0 {
			pats = append(pats, fmt.Sprintf("?y %s %s", pick(all).P, last))
			proj = append(proj, "?y")
		}
	}
	if rng.Intn(2) == 0 {
		pats = append(pats, fmt.Sprintf("?z %s %s", pick(all).P, object("?z", true)))
		proj = append(proj, "?z")
	}
	rng.Shuffle(len(pats), func(i, j int) { pats[i], pats[j] = pats[j], pats[i] })
	return fmt.Sprintf("SELECT %s WHERE { %s }", strings.Join(proj, " "), strings.Join(pats, " . "))
}

// compareIndexSteps walks the query's plan step by step and compares the
// index loop with the hash join at every step keyed by subject or by object
// under a constant predicate, and at every step with no join variable,
// adding up how many steps of each kind it compared and the rows they wrote.
func compareIndexSteps(t *testing.T, g *rdf.Graph, text string, noReorder bool, steps, rows *[3]int) {
	t.Helper()
	q := MustParse(text)
	ev := newEvaluator(context.Background(), g, Options{NoReorder: noReorder, Limits: Limits{MaxIntermediateRows: 16 * maxCompared}})
	ev.sc = selectScope(q)
	var run []*TriplePattern
	for _, el := range q.Where.Elems {
		run = append(run, el.Triple)
	}
	rp := ev.planRun(run)
	if !rp.ok {
		return
	}
	in, owned := readRows(unitBatch(ev.sc.width())), false
	for _, step := range ev.planBGP(rp, 0, 1) {
		if in.rows == 0 || in.rows > maxCompared || ev.cancel.aborted() {
			break // a random join can blow up: its rows say no more
		}
		pp := &rp.pats[step.pat]
		joinPos, freePos, mixed := pp.boundness(in)
		kind := 2 // a cross product
		if len(joinPos) > 0 {
			kind = joinPos[0] / 2 // keyed by subject (0) or, under a constant predicate, by object (1)
		}
		if !mixed && (len(joinPos) == 0 && in.rows > 1 || len(joinPos) > 0 && pp.ids[1] != 0) { // a plan's first step is not a cross product
			loop, hash := &rowWriter{width: in.width}, &rowWriter{width: in.width}
			ev.cancel.resetRows() // each run gets the budget a step gets, and its own abort
			if kind == 2 {
				ev.crossRun(pp, in, loop, nil)
			} else {
				ev.nestedLoopRun(pp, in, loop, nil)
			}
			loopStopped := ev.cancel.aborted()
			ev.cancel.err = nil
			ev.cancel.resetRows()
			ev.probeHashRun(pp, ev.buildHashRun(pp, joinPos, freePos), in, hash, nil)
			// Both account their rows 256 at a time, so over the row budget
			// both stop after the same rows.
			if got, want := writtenRows(loop), writtenRows(hash); loopStopped != ev.cancel.aborted() || !slices.Equal(got, want) {
				t.Fatalf("%s\nstep %v from %d rows: the index loop writes %d rows (stopped: %v), the hash join %d (stopped: %v), or in another sequence",
					text, run[step.pat], in.rows, loop.rows, loopStopped, hash.rows, ev.cancel.aborted())
			}
			if !loopStopped { // a step cut short counts toward no floor
				steps[kind], rows[kind] = steps[kind]+1, rows[kind]+hash.rows
			}
			loop.release()
			hash.release()
		}
		out := ev.evalPattern(run[step.pat], pp, in, &step, nil)
		if owned {
			in.release()
		}
		in, owned = out, true
	}
	if owned {
		in.release()
	}
}

// maxCompared is the most input rows a compared step gets.
const maxCompared = 4096

// writtenRows is every row a writer holds, in order, end to end.
func writtenRows(w *rowWriter) []rdf.ID {
	var out []rdf.ID
	for _, row := range w.all() {
		out = append(out, row...)
	}
	return out
}
