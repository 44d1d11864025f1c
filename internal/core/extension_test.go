package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

// overExtension reports whether a run's profile starts from the extension:
// it has the extension node and no sub-select.
func overExtension(prof *sparql.Profile) bool {
	tree := prof.Tree()
	return strings.Contains(tree, "extension ?x1") && !strings.Contains(tree, "subquery")
}

// reference evaluates the run's prepared query as it was rendered, with the
// injected sub-select: the answer Exec must give.
func reference(t *testing.T, r *Run) *hifun.Answer {
	t.Helper()
	if _, err := r.Prepare(); err != nil {
		t.Fatal(err)
	}
	ctx := *r.ctx
	ctx.Trace, ctx.Profile = nil, nil
	want, err := ctx.ExecutePrepared(context.Background(), r.prep)
	if err != nil {
		t.Fatalf("reference: %v\n%s", err, r.prep.SPARQL)
	}
	return want
}

// randomClick makes one faceted click of s, drawn from what its state
// offers: a class, a value, a value set, a range, each on a forward or an
// inverse facet, a value or range at the end of an expanded path, or a
// focus switch.
func randomClick(s *Session, rng *rand.Rand) string {
	m, st := s.Model(), s.State()
	facets := m.PropertyFacets(st, rng.Intn(3) == 0)
	var f facet.Facet
	for _, i := range rng.Perm(len(facets)) {
		if len(facets[i].Values) > 0 {
			f = facets[i]
			break
		}
	}
	if len(f.Values) == 0 {
		return ""
	}
	path := facet.Path{{P: f.P, Inverse: f.Inverse}}
	vals := m.Decode(f.Values)
	v := vals[rng.Intn(len(vals))].Value
	ops := []string{"<", "<=", ">", ">=", "=", "!="}
	switch rng.Intn(9) {
	case 0:
		classes := m.ClassFacet(st)
		if len(classes) == 0 {
			return ""
		}
		c := classes[rng.Intn(len(classes))].Class
		s.ClickClass(c)
		return "class " + c.LocalName()
	case 1, 2:
		s.ClickValue(path, v)
		return fmt.Sprintf("value %s = %s", path, v)
	case 3:
		vs := []rdf.Term{v, vals[rng.Intn(len(vals))].Value}
		s.ClickValueSet(path, vs)
		return fmt.Sprintf("value set %s ∈ %v", path, vs)
	case 4, 5:
		op := ops[rng.Intn(len(ops))]
		s.ClickRange(path, op, v)
		return fmt.Sprintf("range %s %s %s", path, op, v)
	case 6, 7:
		for _, g := range m.PropertyFacets(st, false) {
			long := append(path[:1:1], facet.PathStep{P: g.P})
			end := m.Decode(m.ExpandPath(st, long))
			if len(end) == 0 {
				continue
			}
			ev := end[rng.Intn(len(end))].Value
			if rng.Intn(2) == 0 {
				s.ClickValue(long, ev)
				return fmt.Sprintf("value %s = %s", long, ev)
			}
			s.ClickRange(long, ">=", ev)
			return fmt.Sprintf("range %s >= %s", long, ev)
		}
		return ""
	default:
		s.SwitchFocus(path[0])
		return "pivot " + path.String()
	}
}

// randomAnalytics sets one or two G paths and a Σ from the facets of s's
// state: COUNT of the items, or an aggregate of a property's values.
func randomAnalytics(s *Session, rng *rand.Rand) string {
	s.ClearAnalytics()
	facets := s.Model().PropertyFacets(s.State(), false)
	if len(facets) == 0 {
		return ""
	}
	var desc []string
	for range 1 + rng.Intn(2) {
		f := facets[rng.Intn(len(facets))]
		s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: f.P}}})
		desc = append(desc, "G "+f.P.LocalName())
	}
	ops := []hifun.AggOp{hifun.OpCount, hifun.OpSum, hifun.OpAvg, hifun.OpMin, hifun.OpMax, hifun.OpGroupConcat}
	op := ops[rng.Intn(len(ops))]
	measure := MeasureSpec{}
	if rng.Intn(3) > 0 {
		f := facets[rng.Intn(len(facets))]
		measure = MeasureSpec{Path: facet.Path{{P: f.P}}}
	}
	s.ClickAggregate(measure, hifun.Operation{Op: op, Distinct: rng.Intn(4) == 0})
	return strings.Join(append(desc, fmt.Sprintf("Σ %s %s", op, measure.Path)), ", ")
}

// sameFrame reports whether two Answer Frames are equal, term for term and
// in order, but for the strings of GROUP_CONCAT, which are compared as
// multisets of their parts: SPARQL 1.1 (§18.5.1) leaves the order in which
// a group's values are joined open, and a run over the extension folds them
// in another order than the sub-select does.
func sameFrame(a, b *hifun.Answer) bool {
	norm := func(a *hifun.Answer) [][]rdf.Term {
		rows := a.Rows()
		for _, row := range rows {
			for j, col := range a.MeasureCols {
				if cell := &row[len(a.GroupCols)+j]; strings.HasPrefix(col, "group_concat") {
					parts := strings.Split(cell.Value, " ")
					slices.Sort(parts)
					cell.Value = strings.Join(parts, " ")
				}
			}
		}
		return rows
	}
	return reflect.DeepEqual(a.GroupCols, b.GroupCols) && reflect.DeepEqual(a.MeasureCols, b.MeasureCols) &&
		a.SPARQL == b.SPARQL && reflect.DeepEqual(norm(a), norm(b))
}

// TestRunsOverTheExtensionMatchTheSubSelect is the run path's differential:
// over seeded random sessions on products and invoices — faceted clicks from
// the start state, a keyword seed with a term the graph does not know, then
// random G and Σ — every run starts from the state's extension, and every
// Answer Frame Exec computes is the one the prepared query gives with its
// injected sub-select (sameFrame), with that query's SPARQL.
func TestRunsOverTheExtensionMatchTheSubSelect(t *testing.T) {
	invoices := datagen.Invoices(datagen.InvoicesConfig{Invoices: 300, Seed: 3, Timestamps: true})
	rdf.Materialize(invoices)
	graphs := []struct {
		name, ns string
		g        *rdf.Graph
	}{
		{"products", datagen.ExampleNS, datagen.Products(datagen.ProductsConfig{Laptops: 300, Companies: 8, Seed: 11, Materialize: true})},
		{"invoices", datagen.InvoicesNS, invoices},
	}
	runs, over := 0, 0
	for _, gr := range graphs {
		for seed := int64(1); seed <= 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := NewSession(gr.g, gr.ns)
			if seed%10 == 0 {
				items := s.State().Ext.First(20)
				s = NewSessionFrom(gr.g, gr.ns, append(items, rdf.NewIRI("http://nowhere/item")))
			}
			var trail []string
			for step := 0; step < 8; step++ {
				if rng.Intn(3) > 0 {
					if c := randomClick(s, rng); c != "" {
						trail = append(trail, c)
					}
					if s.State().Ext.Len() == 0 {
						s.Back()
					}
					continue
				}
				a := randomAnalytics(s, rng)
				if a == "" {
					continue
				}
				where := fmt.Sprintf("%s seed %d: %s; %s", gr.name, seed, strings.Join(trail, " → "), a)
				r, err := s.PrepareRun()
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				prof := sparql.NewProfile("run")
				got, err := r.Exec(context.Background(), nil, prof)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				runs++
				if overExtension(prof) {
					over++
				}
				if want := reference(t, r); !sameFrame(got, want) {
					t.Errorf("%s: over the extension\n%s\nwith the sub-select\n%s\n%s", where, got, want, want.SPARQL)
				}
			}
		}
	}
	t.Logf("%d runs, %d of them over the extension", runs, over)
	if over != runs {
		t.Errorf("only %d of %d runs started from the extension", over, runs)
	}
}

// TestRunOverAStaleExtension: a write landing between PrepareRun and Exec to
// a predicate the intention reads makes the state's extension stale, and Exec
// runs over the extension computed again at the new version, which answers
// what the injected sub-select gives there; a write to a predicate it does
// not read leaves the run on the extension it had.
func TestRunOverAStaleExtension(t *testing.T) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 200, Companies: 8, Seed: 4, Materialize: true})
	s := NewSession(g, datagen.ExampleNS)
	s.ClickClass(pe("Laptop"))
	s.ClickValue(facet.Path{{P: pe("USBPorts")}}, rdf.NewInteger(3))
	s.ClickGroupBy(GroupSpec{Path: facet.Path{{P: pe("manufacturer")}}})
	s.ClickAggregate(MeasureSpec{Path: facet.Path{{P: pe("price")}}}, hifun.Operation{Op: hifun.OpSum})
	exec := func(r *Run) (*hifun.Answer, *sparql.Profile) {
		t.Helper()
		prof := sparql.NewProfile("run")
		ans, err := r.Exec(context.Background(), nil, prof)
		if err != nil {
			t.Fatal(err)
		}
		return ans, prof
	}

	// A laptop with two ports gets a third: the intention reads USBPorts.
	var joining rdf.Term
	g.Match(rdf.Any, pe("USBPorts"), rdf.NewInteger(2), func(tr rdf.Triple) bool {
		joining = tr.S
		return false
	})
	r, err := s.PrepareRun()
	if err != nil {
		t.Fatal(err)
	}
	before := reference(t, r)
	g.Remove(rdf.Triple{S: joining, P: pe("USBPorts"), O: rdf.NewInteger(2)})
	g.Add(rdf.Triple{S: joining, P: pe("USBPorts"), O: rdf.NewInteger(3)})
	got, prof := exec(r)
	if !overExtension(prof) {
		t.Errorf("a write to USBPorts moved the run off the extension:\n%s", prof.Tree())
	}
	if want := reference(t, r); !reflect.DeepEqual(got, want) || reflect.DeepEqual(got, before) {
		t.Errorf("after the write: got\n%s\nthe sub-select gives\n%s\nbefore the write\n%s", got, want, before)
	}

	// A write to a predicate the intention does not read.
	r, err = s.PrepareRun()
	if err != nil {
		t.Fatal(err)
	}
	g.Add(rdf.Triple{S: joining, P: pe("colour"), O: rdf.NewString("grey")})
	got, prof = exec(r)
	if !overExtension(prof) {
		t.Errorf("a write to an unread predicate moved the run off the extension:\n%s", prof.Tree())
	}
	if want := reference(t, r); !reflect.DeepEqual(got, want) {
		t.Errorf("after an unrelated write: got\n%s\nthe sub-select gives\n%s", got, want)
	}
}

// TestStartStateSigma: at the start state a Σ ranges over the start
// extension, the 18 individuals of the materialized SmallProducts, as at any
// other state. Grouped by rdf:type it counts each class's individuals and
// no class or property; ε-grouped it counts the extension; and a keyword
// seed holding a term the graph never held counts the seed terms the graph
// names. The start state's run used to range over whatever its own
// patterns bound, and its ε COUNT had no pattern at all.
func TestStartStateSigma(t *testing.T) {
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	count := func(s *Session, group facet.Path) *hifun.Answer {
		t.Helper()
		s.ClearAnalytics()
		if group != nil {
			s.ClickGroupBy(GroupSpec{Path: group})
		}
		s.ClickAggregate(MeasureSpec{}, hifun.Operation{Op: hifun.OpCount})
		ans, err := s.RunAnalytics()
		if err != nil {
			t.Fatal(err)
		}
		return ans
	}
	s := NewSession(g, datagen.ExampleNS)
	ext := s.State().Ext
	if ext.Len() != 18 {
		t.Fatalf("start extension %v, want 18 members", ext.Items())
	}
	typ := rdf.NewIRI(rdf.RDFType)
	for _, row := range count(s, facet.Path{{P: typ}}).Rows() {
		if slices.Contains(rdf.MetaClasses, row[0].Value) {
			t.Errorf("COUNT by rdf:type has a row for %v", row[0])
		}
		if want := s.Model().RestrictClass(ext, row[0]).Len(); row[1] != rdf.NewInteger(int64(want)) {
			t.Errorf("COUNT by rdf:type: %v counts %v, the extension holds %d of them", row[0], row[1], want)
		}
	}
	if ans := count(s, nil); len(ans.Rows()) != 1 || ans.Rows()[0][0] != rdf.NewInteger(int64(ext.Len())) {
		t.Errorf("ε COUNT at the start state:\n%s\nwant %d", ans, ext.Len())
	}

	seed := append(ext.First(5), rdf.NewIRI("http://nowhere/item"))
	s = NewSessionFrom(g, datagen.ExampleNS, seed)
	if n := s.State().Ext.Len(); n != 5 {
		t.Errorf("seeded extension %v, want the 5 terms the graph holds", s.State().Ext.Items())
	}
	if ans := count(s, nil); len(ans.Rows()) != 1 || ans.Rows()[0][0] != rdf.NewInteger(int64(s.State().Ext.Len())) {
		t.Errorf("ε COUNT of a seed:\n%s\nwant %d\n%s", ans, s.State().Ext.Len(), ans.SPARQL)
	}
}
