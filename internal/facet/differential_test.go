package facet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
)

// statePair is one state of a walk in both implementations.
type statePair struct {
	got  *State
	want *refState
}

// checkPair holds the ID-space state to the reference one on everything a
// click can show: the extension, the intention, the class tree, the property
// facets (markers, counts and order, decoded by Model.Decode), the numeric
// and date buckets, and a two-hop expansion.
func checkPair(t *testing.T, m *Model, ref refModel, p statePair, rng *rand.Rand, where string) []Facet {
	t.Helper()
	if got, want := p.got.Ext.Items(), p.want.Ext.Items(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: extension has %d members, reference %d (or order differs)", where, len(got), len(want))
	}
	if p.got.Ext.Len() != p.want.Ext.Len() {
		t.Fatalf("%s: Len %d, reference %d", where, p.got.Ext.Len(), p.want.Ext.Len())
	}
	if got, want := p.got.Int.String(), p.want.Int.String(); got != want {
		t.Fatalf("%s: intention %q, reference %q", where, got, want)
	}
	if got, want := m.ClassFacet(p.got), ref.ClassFacet(p.want); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: class facet\n got %v\nwant %v", where, got, want)
	}
	inverse := rng.Intn(2) == 0
	facets, want := m.PropertyFacets(p.got, inverse), ref.PropertyFacets(p.want, inverse)
	if got := decodeFacets(m, facets); !reflect.DeepEqual(got, want) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d facets, reference %d", where, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: facet %d (inverse=%v)\n got %v\nwant %v", where, i, inverse, got[i], want[i])
			}
		}
	}
	for _, f := range facets {
		vals := m.Decode(f.Values)
		v := vals[rng.Intn(len(vals))].Value
		if got, want := m.Restrict(p.got.Ext, f.P, f.Inverse, v).Items(), ref.Restrict(p.want.Ext, f.P, f.Inverse, v).Items(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Restrict(%s:%s) has %d members, reference %d", where, f.P.LocalName(), v.LocalName(), len(got), len(want))
		}
		vs := []rdf.Term{v, vals[0].Value}
		if got, want := m.RestrictSet(p.got.Ext, f.P, f.Inverse, NewTermSet(vs...)).Items(), ref.RestrictSet(p.want.Ext, f.P, f.Inverse, newRefSet(vs...)).Items(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: RestrictSet(%s) has %d members, reference %d", where, f.P.LocalName(), len(got), len(want))
		}
		if f.Inverse {
			continue
		}
		n := 1 + rng.Intn(7)
		if got, want := m.NumericBuckets(p.got, f.P, n), ref.NumericBuckets(p.want, f.P, n); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: NumericBuckets(%s, %d)\n got %v\nwant %v", where, f.P.LocalName(), n, got, want)
		}
		if got, want := m.DateBuckets(p.got, f.P), ref.DateBuckets(p.want, f.P); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: DateBuckets(%s)\n got %v\nwant %v", where, f.P.LocalName(), got, want)
		}
	}
	if len(facets) > 0 {
		path := Path{
			{P: facets[rng.Intn(len(facets))].P, Inverse: rng.Intn(4) == 0},
			{P: facets[rng.Intn(len(facets))].P, Inverse: rng.Intn(4) == 0},
		}
		if got, want := m.Decode(m.ExpandPath(p.got, path)), ref.ExpandPath(p.want, path); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ExpandPath(%s)\n got %v\nwant %v", where, path, got, want)
		}
	}
	return facets
}

// TestDifferentialAgainstTermKeyedReference drives seeded random click
// sequences — class, value, value set, range, bucket, path expansion with a
// click at its end, switch-focus and back — through the ID-space model and
// the term-keyed reference, and requires identical extensions, markers,
// counts and order after every click, sequentially and with a worker pool.
func TestDifferentialAgainstTermKeyedReference(t *testing.T) {
	invoices := datagen.Invoices(datagen.InvoicesConfig{Invoices: 400, Seed: 5, Timestamps: true})
	rdf.Materialize(invoices)
	graphs := map[string]*rdf.Graph{
		"products": datagen.Products(datagen.ProductsConfig{Laptops: 250, Companies: 9, Seed: 13, Materialize: true}),
		"invoices": invoices,
	}
	for name, g := range graphs {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/parallelism=%d", name, workers), func(t *testing.T) {
				m := NewModel(g)
				m.Parallelism = workers
				if workers == 4 {
					m.MaxValues = 40 // the truncation path, on one of the two runs
				}
				ref := refOf(m)
				rng := rand.New(rand.NewSource(int64(41 + workers)))
				for walk := 0; walk < 10; walk++ {
					walkDifferential(t, m, ref, rng, fmt.Sprintf("walk %d", walk))
				}
			})
		}
	}
}

func walkDifferential(t *testing.T, m *Model, ref refModel, rng *rand.Rand, walk string) {
	history := []statePair{{m.Start(), ref.Start()}}
	for step := 0; step < 9; step++ {
		cur := history[len(history)-1]
		where := fmt.Sprintf("%s step %d (%s)", walk, step, cur.got.Int)
		facets := checkPair(t, m, ref, cur, rng, where)
		if cur.got.Ext.Len() == 0 || len(facets) == 0 {
			history = history[:1]
			continue
		}
		f := facets[rng.Intn(len(facets))]
		path := Path{{P: f.P, Inverse: f.Inverse}}
		vals := m.Decode(f.Values)
		v := vals[rng.Intn(len(vals))].Value
		var next statePair
		switch action := rng.Intn(9); action {
		case 0: // class
			var flat []ClassNode
			var collect func(ns []ClassNode)
			collect = func(ns []ClassNode) {
				for _, n := range ns {
					flat = append(flat, n)
					collect(n.Children)
				}
			}
			collect(m.ClassFacet(cur.got))
			if len(flat) == 0 {
				continue
			}
			c := flat[rng.Intn(len(flat))].Class
			next = statePair{m.ClickClass(cur.got, c), ref.ClickClass(cur.want, c)}
		case 1, 2: // value
			next = statePair{m.ClickValue(cur.got, path, v), ref.ClickValue(cur.want, path, v)}
		case 3: // value set, with one value the graph has never seen
			vs := []rdf.Term{v, vals[rng.Intn(len(vals))].Value, rdf.NewIRI("http://nowhere/v")}
			next = statePair{m.ClickValueSet(cur.got, path, vs), ref.ClickValueSet(cur.want, path, vs)}
		case 4: // range
			op := []string{"<", "<=", ">", ">=", "=", "!="}[rng.Intn(6)]
			next = statePair{m.ClickRange(cur.got, path, op, v), ref.ClickRange(cur.want, path, op, v)}
		case 5: // bucket
			bs := m.NumericBuckets(cur.got, f.P, 5)
			if f.Inverse || bs == nil {
				continue
			}
			i := rng.Intn(len(bs))
			next = statePair{
				m.ClickBucket(cur.got, f.P, bs[i], i == len(bs)-1),
				ref.ClickBucket(cur.want, f.P, bs[i], i == len(bs)-1),
			}
		case 6: // expand a second hop, click (or range-filter) a value at its end
			var long Path
			var end []TermCount
			props := m.applicableProperties()
			for _, i := range rng.Perm(len(props)) {
				long = append(path[:1:1], PathStep{P: props[i]})
				if end = m.Decode(m.ExpandPath(cur.got, long)); len(end) > 0 {
					break
				}
			}
			if len(end) == 0 {
				continue
			}
			ev := end[rng.Intn(len(end))].Value
			if rng.Intn(2) == 0 {
				next = statePair{m.ClickValue(cur.got, long, ev), ref.ClickValue(cur.want, long, ev)}
			} else {
				next = statePair{m.ClickRange(cur.got, long, ">=", ev), ref.ClickRange(cur.want, long, ">=", ev)}
			}
		case 7: // switch focus
			next = statePair{m.SwitchFocus(cur.got, path[0]), ref.SwitchFocus(cur.want, path[0])}
		case 8: // back
			if len(history) > 1 {
				history = history[:len(history)-1]
			}
			continue
		}
		history = append(history, next)
	}
	checkPair(t, m, ref, history[len(history)-1], rng, walk+" end")
}

// decodeFacets returns facets with their markers decoded, as the reference
// computes them.
func decodeFacets(m *Model, fs []Facet) []refFacet {
	var out []refFacet
	for _, f := range fs {
		out = append(out, refFacet{P: f.P, Inverse: f.Inverse, Values: m.Decode(f.Values)})
	}
	return out
}

// TestFreeStandingSets: the exported TermSet surface works without a graph,
// a model operator accepts such a set, and terms the graph has never seen
// are counted and listed but never join; a seed keeps none of them.
func TestFreeStandingSets(t *testing.T) {
	m := model(t)
	ghost := rdf.NewIRI("http://nowhere/ghost")
	e := NewTermSet(pe("laptop1"), pe("laptop2"), ghost, pe("laptop1"))
	if e.Len() != 3 || !e.Has(ghost) || e.Has(pe("laptop3")) {
		t.Fatalf("free-standing set: len %d, items %v", e.Len(), e.Items())
	}
	if got := m.RestrictClass(e, pe("Laptop")); got.Len() != 2 || got.Has(ghost) {
		t.Fatalf("RestrictClass over a free-standing set = %v", got.Items())
	}
	// A seed term the graph never held names no resource: StartFrom drops it
	// from the extension and from the intention's VALUES alike.
	s := m.StartFrom([]rdf.Term{pe("laptop1"), ghost})
	if s.Ext.Len() != 1 || s.Ext.Has(ghost) || !reflect.DeepEqual(s.Ext.Items(), []rdf.Term{pe("laptop1")}) ||
		!reflect.DeepEqual(s.Int.Seed, []rdf.Term{pe("laptop1")}) {
		t.Fatalf("StartFrom extension = %v, seed %v", s.Ext.Items(), s.Int.Seed)
	}
	if fs := m.PropertyFacets(s, false); len(fs) == 0 {
		t.Fatal("no facets over a seeded extension")
	}
}

// TestFirstObjectsMatchItems: the right frame's first k objects, picked
// from the bitmap, are Items()[:k] — on seeded random extensions mixing
// blank nodes, IRIs that share a local name, "/"- and "#"-ended IRIs, and
// numbers that tie on their value. (No plain strings among the numbers:
// Term.Less is not transitive across the two, so such a mix has no one
// sorted order for two algorithms to agree on.)
func TestFirstObjectsMatchItems(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := rdf.NewGraph()
	p := rdf.NewIRI("http://ex.org/p")
	var terms []rdf.Term
	for i := 0; i < 60; i++ {
		n := fmt.Sprint(rng.Intn(40))
		terms = append(terms,
			rdf.NewIRI("http://a.org/"+n), rdf.NewIRI("http://b.org/ns#"+n),
			rdf.NewIRI("http://a.org/"+n+"/"), rdf.NewIRI("http://b.org/"+n+"#"), rdf.NewBlank("b"+n),
			rdf.NewTyped(n, rdf.XSDInteger), rdf.NewTyped("0"+n, rdf.XSDInteger), rdf.NewDecimal(float64(len(n))))
	}
	for _, tm := range terms {
		g.Add(rdf.Triple{S: p, P: p, O: tm})
	}
	m := NewModel(g)
	for trial := 0; trial < 30; trial++ {
		e := m.newSet()
		for _, tm := range terms {
			if rng.Intn(4) == 0 {
				e.Add(tm)
			}
		}
		if trial%10 == 0 { // members with no ID: a ghost term, a free-standing set
			e.Add(rdf.NewIRI("http://nowhere/ghost"))
		} else if trial%10 == 1 {
			e = NewTermSet(e.Items()...)
		}
		items := e.Items()
		for _, k := range []int{0, 1, 50, len(items)} {
			if got, want := e.First(k), items[:min(k, len(items))]; !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: First(%d) of %d members\n got %v\nwant %v", trial, k, len(items), got, want)
			}
		}
	}
}

// firstAllocBudget is what TermSet.First(5) of a set of 100 IDs may
// allocate. Measured with go1.24 on linux/amd64: 6 — the heap and its keys,
// the loop over the members and its state, the IDs and the terms. While
// rdf.TermView.Least kept its heap in closures that captured the view, the
// caller's view moved to the heap too, and it measured 9.
const firstAllocBudget = 6

// TestFirstAllocs holds TermSet.First to its allocation budget: a view that
// escapes to the heap again, or a heap grown per member, breaks it.
func TestFirstAllocs(t *testing.T) {
	g := rdf.NewGraph()
	p := rdf.NewIRI("http://ex.org/p")
	m := NewModel(g)
	for i := 0; i < 100; i++ {
		g.Add(rdf.Triple{S: p, P: p, O: rdf.NewTyped(fmt.Sprint(i), rdf.XSDInteger)})
	}
	s := m.newSet()
	for i := 0; i < 100; i++ {
		s.Add(rdf.NewTyped(fmt.Sprint(i), rdf.XSDInteger))
	}
	if n := testing.AllocsPerRun(50, func() { s.First(5) }); n > firstAllocBudget {
		t.Errorf("First(5) of 100 members allocates %v times, budget %d", n, firstAllocBudget)
	}
}

// TestSortDateMarkersAllocatesLinearly: ordering a 1 000-value xsd:date
// facet allocates its result, nothing per comparison (each comparison used
// to parse both dates, failing through three layouts on the way).
func TestSortDateMarkersAllocatesLinearly(t *testing.T) {
	g := rdf.NewGraph()
	src := make([]ValueCount, 1000)
	for i := range src {
		day := rdf.NewTyped(fmt.Sprintf("20%02d-%02d-%02d", i%23, 1+i%12, 1+i%28), rdf.XSDDate)
		g.Add(rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://ex.org/s%d", i)), P: rdf.NewIRI("http://ex.org/day"), O: day})
		id, _ := g.TermID(day)
		src[i] = ValueCount{ID: id, Count: int32(1 + i%7)}
	}
	m := &Model{G: g}
	var c counter
	vcs := m.markers(&c, src, 0) // sizes the key buffer
	if n := testing.AllocsPerRun(10, func() { vcs = m.markers(&c, src, 0) }); n > 2 {
		t.Errorf("sorting %d date markers allocates %v times", len(src), n)
	}
	for i := 1; i < len(vcs); i++ {
		a, b := vcs[i-1], vcs[i]
		if a.Count < b.Count || (a.Count == b.Count && g.TermOf(b.ID).Less(g.TermOf(a.ID))) {
			t.Fatalf("markers %d and %d out of order: %v, %v", i-1, i, a, b)
		}
	}
}
