package sparql

import (
	"context"
	"fmt"
	"strings"

	"rdfanalytics/internal/rdf"
)

// Explain reports how the engine would evaluate a SELECT query: the join
// order chosen for each basic graph pattern run (with the cardinality
// estimates that drove it), the join strategy each scan would use, where
// filters apply, and the solution modifiers. A diagnostic facility in the
// spirit of endpoint EXPLAIN features; the output is human-readable text.
func Explain(g *rdf.Graph, src string) (string, error) {
	return ExplainOpts(g, src, Options{})
}

// ExplainOpts is Explain with evaluation options applied, so the reported
// join order and strategy choices match what ExecSelectOpts would do.
func ExplainOpts(g *rdf.Graph, src string, opts Options) (string, error) {
	q, err := parseForm(src, FormSelect, "EXPLAIN supports SELECT queries")
	if err != nil {
		return "", err
	}
	ev := newEvaluator(context.Background(), g, opts)
	ev.sc = selectScope(q)
	var sb strings.Builder
	sb.WriteString("SELECT plan:\n")
	explainGroup(ev, q.Where, &sb, 1, nil, 1)
	if len(q.GroupBy) > 0 {
		naggs := 0
		for _, it := range q.Select.Items {
			if HasAggregate(it.Expr) {
				naggs++
			}
		}
		fmt.Fprintf(&sb, "  group by %d condition(s), %d aggregate column(s)\n", len(q.GroupBy), naggs)
	}
	if len(q.Having) > 0 {
		fmt.Fprintf(&sb, "  having: %d condition(s)\n", len(q.Having))
	}
	if len(q.OrderBy) > 0 {
		fmt.Fprintf(&sb, "  order by %d condition(s)\n", len(q.OrderBy))
	}
	if q.Select.Distinct {
		sb.WriteString("  distinct\n")
	}
	if q.Limit >= 0 {
		fmt.Fprintf(&sb, "  limit %d offset %d\n", q.Limit, q.Offset)
	}
	return sb.String(), nil
}

// ExplainAnalyze executes a SELECT query with the operator-level profiler
// enabled and returns the EXPLAIN ANALYZE tree: every operator node carries
// its invocation count, actual rows in/out and wall time, and every index
// scan additionally shows the planner's graph-count estimate next to the
// actual cardinality with the q-error max(est/act, act/est). The query's
// results are computed and discarded; profiling never changes them (see
// TestProfileDifferential).
func ExplainAnalyze(g *rdf.Graph, src string, opts Options) (string, error) {
	q, err := parseForm(src, FormSelect, "EXPLAIN ANALYZE supports SELECT queries")
	if err != nil {
		return "", err
	}
	prof := NewProfile("query")
	opts.Profile = prof
	if _, err := ExecSelectOpts(g, q, opts); err != nil {
		return "", err
	}
	return prof.Tree(), nil
}

// explainGroup reports a group as evalGroup runs it, from what the enclosing
// group credits as bound and the estimated rows flowing into each run.
func explainGroup(ev *evaluator, gp *GroupPattern, sb *strings.Builder, depth int, estIn map[string]bool, rows int) {
	indent := strings.Repeat("  ", depth)
	step := 0
	bound := map[string]bool{}
	estB := cloneVarSet(estIn)
	// Mirror evalGroup's filter registration so the report shows where each
	// filter actually applies: inside a run, pushed down when bound, or at
	// group end.
	pending := groupFilters(gp, ev.noPushdown)
	bind := func(tp *TriplePattern) {
		for _, v := range tp.Vars() {
			bound[v] = true
			estB[v] = true
		}
	}
	walk := groupWalk{elems: gp.Elems, spanFilters: !ev.noPushdown, textual: ev.noReorder}
	for {
		run, e := walk.next(estB)
		if run == nil && e == nil {
			break
		}
		switch {
		case run != nil && run[0].Path != nil:
			step++
			tp := run[0]
			from := "from every source"
			switch s, o := !tp.S.IsVar() || estB[tp.S.Var], !tp.O.IsVar() || estB[tp.O.Var]; {
			case s && o:
				from = "both ends bound"
			case s:
				from = "from the subject"
			case o:
				from = "from the object"
			}
			fmt.Fprintf(sb, "%s%d. path %s  (%s)\n", indent, step, tp, from)
			bind(tp)
		case run != nil:
			preSure := cloneVarSet(bound)
			preEst := cloneVarSet(estB)
			for _, tp := range run {
				bind(tp)
			}
			step++
			rp := ev.planRun(run)
			if !rp.ok {
				fmt.Fprintf(sb, "%s%d. bgp %d pattern(s): no matches (constant term not in dictionary)\n",
					indent, step, len(run))
				rows = 0
				continue
			}
			plan := ev.planBGP(rp, colsFromVars(rp, preEst), rows)
			attachFilters(plan, run, takeReady(pending, bound), preSure)
			fmt.Fprintf(sb, "%s%d. bgp %d pattern(s)  (order=%s, cost=%d)\n",
				indent, step, len(run), plan.order(), int(plan.cost))
			for _, st := range plan.steps {
				fmt.Fprintf(sb, "%s   - scan %s  (est. %d, %s)\n",
					indent, run[st.pat], st.card, st.strategy)
				for _, f := range st.filters {
					fmt.Fprintf(sb, "%s     · filter %s  (in-run)\n", indent, f.expr)
				}
			}
			out := plan.steps[len(plan.steps)-1].outRows
			if out > 1<<30 {
				rows = 1 << 30
			} else {
				rows = int(out)
			}
		case e.Optional != nil:
			step++
			fmt.Fprintf(sb, "%s%d. optional {\n", indent, step)
			inBody := ev.inBody
			ev.inBody = true
			explainGroup(ev, e.Optional, sb, depth+1, estB, 1)
			ev.inBody = inBody
			fmt.Fprintf(sb, "%s}\n", indent)
		case e.Union != nil:
			step++
			fmt.Fprintf(sb, "%s%d. union of %d alternatives\n", indent, step, len(e.Union.Alternatives))
			for _, alt := range e.Union.Alternatives {
				explainGroup(ev, alt, sb, depth+1, estB, rows)
			}
		case e.Group != nil:
			step++
			fmt.Fprintf(sb, "%s%d. group {\n", indent, step)
			explainGroup(ev, e.Group, sb, depth+1, estB, rows)
			fmt.Fprintf(sb, "%s}\n", indent)
		case e.Bind != nil:
			step++
			fmt.Fprintf(sb, "%s%d. bind %s as ?%s\n", indent, step, e.Bind.Expr, e.Bind.Var)
			estB[e.Bind.Var] = true
		case e.Values != nil:
			step++
			fmt.Fprintf(sb, "%s%d. values %v (%d rows)\n", indent, step, e.Values.Vars, len(e.Values.Rows))
			for j, v := range e.Values.Vars {
				if e.Values.sure(j) {
					bound[v] = true
				}
				estB[v] = true
			}
		case e.SubQuery != nil:
			step++
			fmt.Fprintf(sb, "%s%d. subquery {\n", indent, step)
			explainGroup(ev, e.SubQuery.Where, sb, depth+1, nil, 1)
			fmt.Fprintf(sb, "%s}\n", indent)
		case e.Minus != nil:
			step++
			fmt.Fprintf(sb, "%s%d. minus {\n", indent, step)
			explainGroup(ev, e.Minus, sb, depth+1, nil, 1)
			fmt.Fprintf(sb, "%s}\n", indent)
		}
	}
	// Filters the planner did not fold into a run.
	for _, f := range pending {
		if f.applied {
			continue
		}
		step++
		when := "pushed down when bound"
		if f.deferToEnd {
			when = "at group end"
		}
		fmt.Fprintf(sb, "%s%d. filter %s  (%s)\n", indent, step, f.expr, when)
	}
}
