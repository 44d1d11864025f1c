package sparql

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"rdfanalytics/internal/obs"
	"rdfanalytics/internal/par"
	"rdfanalytics/internal/rdf"
)

// evaluator executes parsed queries against a graph.
type evaluator struct {
	g *rdf.Graph
	// noReorder disables join ordering (ablation #3 in DESIGN.md): patterns
	// evaluate in textual order, and no run is re-planned mid-query.
	noReorder bool
	// noPushdown disables early filter application: filters evaluate only
	// after the whole group, as the SPARQL algebra literally states.
	noPushdown bool
	// workers is the resolved worker-pool size for partitioned BGP
	// evaluation (always >= 1; 1 means fully sequential).
	workers int
	// cur is the span new trace children attach under; nil when tracing is
	// off, in which case every span site is a single pointer test.
	cur *obs.Span
	// prof is the profile node new operator records attach under; nil when
	// profiling is off, same single-pointer-test convention as cur.
	prof *ProfNode
	// cancel is the shared abort state (deadline, client disconnect, budget
	// kill); see limits.go. Never nil.
	cancel *evalCancel
	// limits are the resolved resource caps for this evaluation.
	limits Limits
	// fbSites is the per-query feedback snapshot: scan site key (label +
	// bound-variable context) → observed (input, output) cardinality for
	// this query's fingerprint, taken once at construction so planning and
	// mid-query replans never lock the store. Nil when no store or no
	// fingerprint was passed, or the fingerprint has no valid entries.
	fbSites map[string]SiteActual
	// replanFactor is the mid-query re-planning trigger: a scan whose actual
	// output exceeds its estimate by this factor re-optimizes the remaining
	// patterns of its run. 0 disables adaptive re-planning.
	replanFactor float64
	// sc is the scope whose slots the rows being evaluated are laid out by:
	// set by selectRows for the SELECT in progress (a subquery installs its
	// own and restores the outer one) and by evalWhere for bare patterns.
	sc *scope
	// dict is the evaluation's dictionary view: graph IDs plus scratch IDs
	// for computed terms (see rows.go).
	dict *termDict
}

// overBudget checks an intermediate row set against the row
// budget, aborting the evaluation when it is exceeded. (Joins additionally
// account rows incrementally while producing; this is the operator-boundary
// backstop for OPTIONAL, UNION, VALUES, paths and subqueries.)
func (ev *evaluator) overBudget(n int) bool {
	if ev.limits.MaxIntermediateRows > 0 && n > ev.limits.MaxIntermediateRows {
		ev.cancel.abort(&BudgetError{Resource: "rows", Used: n, Limit: ev.limits.MaxIntermediateRows})
		return true
	}
	return false
}

// Options tune query evaluation.
type Options struct {
	// NoReorder evaluates BGPs in textual order instead of the cost-based
	// order (the join-ordering ablation, and the differential tests'
	// reference).
	NoReorder bool
	// NoPushdown applies filters only at group end (for the filter-pushdown
	// ablation).
	NoPushdown bool
	// Parallelism is the worker-pool size for BGP evaluation: input-binding
	// slices above a threshold are partitioned across this many goroutines
	// (results merge in input order, so answers are identical at every
	// setting — the DESIGN.md §5 decision-5 ablation). 0 means GOMAXPROCS;
	// 1 forces sequential evaluation.
	Parallelism int
	// Trace, when non-nil, receives a span tree of the evaluation: the
	// match/aggregate/modifier phases, each BGP run with its join strategy
	// and row counts, filters, and nested constructs. Tracing never changes
	// results, only records them (see TestTraceDifferential).
	Trace *obs.Trace
	// Profile, when non-nil, receives an operator-level runtime profile of
	// the evaluation (EXPLAIN ANALYZE): per-operator wall time, rows in/out
	// and estimated-vs-actual cardinality with q-error. Like tracing,
	// profiling never changes results (see TestProfileDifferential).
	Profile *Profile
	// Limits bounds the resources the evaluation may consume (row budget on
	// intermediate binding sets, property-path depth/visited caps); the
	// zero value means "no row budget, default path caps". Violations
	// return a *BudgetError matching ErrBudgetExceeded.
	Limits
	// Feedback, when non-nil, closes the q-error loop: scans of a query
	// whose FingerprintID ran before (on the current graph version) are
	// costed with their observed actual cardinalities, and — when Profile
	// is also set — the finished query's actuals are folded back into the
	// store for the next replan of the same fingerprint.
	Feedback *FeedbackStore
	// FingerprintID keys feedback lookups and observations; use
	// FingerprintID(Fingerprint(q)). Feedback is inert without it.
	FingerprintID string
	// ReplanQError is the adaptive re-planning trigger: when a scan's
	// actual cardinality exceeds its estimate by this factor and at least
	// two patterns of the run remain, the rest of the run is re-optimized
	// with the observed row count. 0 means the default (8); negative
	// disables mid-query re-planning, as does NoReorder.
	ReplanQError float64
}

func newEvaluator(ctx context.Context, g *rdf.Graph, opts Options) *evaluator {
	if ctx == nil {
		ctx = context.Background()
	}
	replan := opts.ReplanQError
	switch {
	case replan < 0 || opts.NoReorder:
		replan = 0
	case replan == 0:
		replan = defaultReplanQError
	}
	ev := &evaluator{
		g:            g,
		noReorder:    opts.NoReorder,
		noPushdown:   opts.NoPushdown,
		workers:      par.Workers(opts.Parallelism),
		cur:          opts.Trace.Root(),
		prof:         opts.Profile.Root(),
		cancel:       &evalCancel{ctx: ctx},
		limits:       opts.Limits,
		replanFactor: replan,
		dict:         &termDict{g: g, ids: map[rdf.Term]rdf.ID{}},
	}
	if g != nil {
		ev.fbSites = opts.Feedback.SiteActuals(opts.FingerprintID, g.Version())
	}
	return ev
}

// ExecSelectOpts executes a parsed SELECT query with explicit options.
func ExecSelectOpts(g *rdf.Graph, q *Query, opts Options) (*Results, error) {
	return ExecSelectCtx(context.Background(), g, q, opts)
}

// ExecSelectCtx executes a parsed SELECT query under a context: evaluation
// polls ctx cooperatively (at operator boundaries and inside join/path/scan
// loops, including worker-pool partitions) and aborts with context.Cause(ctx)
// when the deadline passes or the context is cancelled. Resource-limit
// violations abort with a *BudgetError. Aborted evaluations never return
// partial results.
func ExecSelectCtx(ctx context.Context, g *rdf.Graph, q *Query, opts Options) (*Results, error) {
	start := time.Now()
	ev := newEvaluator(ctx, g, opts)
	res, err := ev.execSelect(q)
	observeSince(execSeconds, start)
	if p := opts.Profile; p != nil {
		rows := 0
		if res != nil {
			rows = len(res.Rows)
		}
		p.SetTraceID(opts.Trace.ID())
		p.root.record(time.Since(start), 1, rows)
		p.emitMetrics()
		if err == nil && opts.Feedback != nil && opts.FingerprintID != "" {
			// Close the loop: fold this run's per-scan actuals into the
			// feedback store so the next replan of the same fingerprint
			// plans with true cardinalities.
			opts.Feedback.Observe(opts.FingerprintID, g.Version(), p.Estimates())
		}
	}
	if err != nil {
		observeAbort(opts.Trace.Root(), err)
		return nil, err
	}
	return res, nil
}

// parseForm parses a query and demands the given form; what names the
// complaint when it is another.
func parseForm(src string, form QueryForm, what string) (*Query, error) {
	q, err := Parse(src)
	if err == nil && q.Form != form {
		err = fmt.Errorf("sparql: %s", what)
	}
	return q, err
}

// Select parses and executes a SELECT query.
func Select(g *rdf.Graph, src string) (*Results, error) {
	q, err := parseForm(src, FormSelect, "not a SELECT query")
	if err != nil {
		return nil, err
	}
	return ExecSelect(g, q)
}

// Ask parses and executes an ASK query.
func Ask(g *rdf.Graph, src string) (bool, error) {
	q, err := parseForm(src, FormAsk, "not an ASK query")
	if err != nil {
		return false, err
	}
	return ExecAskCtx(context.Background(), g, q, Options{})
}

// ExecAskCtx executes a parsed ASK query; ctx and opts (Trace, Limits, the
// planner switches) mean what they mean to ExecSelectCtx.
func ExecAskCtx(ctx context.Context, g *rdf.Graph, q *Query, opts Options) (bool, error) {
	rows, err := newEvaluator(ctx, g, opts).evalWhere(q.Where)
	if err != nil {
		return false, err
	}
	return rows.n() > 0, nil
}

// Construct parses and executes a CONSTRUCT query, returning the built graph.
func Construct(g *rdf.Graph, src string) (*rdf.Graph, error) {
	q, err := parseForm(src, FormConstruct, "not a CONSTRUCT query")
	if err != nil {
		return nil, err
	}
	return ExecConstructCtx(context.Background(), g, q, Options{})
}

// ExecConstructCtx executes a parsed CONSTRUCT query (see ExecAskCtx).
func ExecConstructCtx(ctx context.Context, g *rdf.Graph, q *Query, opts Options) (*rdf.Graph, error) {
	ev := newEvaluator(ctx, g, opts)
	rows, err := ev.evalWhere(q.Where)
	if err != nil {
		return nil, err
	}
	out := rdf.NewGraph()
	for _, t := range ev.instantiate(q.Template, rows) {
		out.Add(t)
	}
	return out, nil
}

// Describe parses and executes a DESCRIBE query: the result graph holds
// every triple whose subject is a described resource, with one level of
// blank-node closure (a simple concise bounded description).
func Describe(g *rdf.Graph, src string) (*rdf.Graph, error) {
	q, err := parseForm(src, FormDescribe, "not a DESCRIBE query")
	if err != nil {
		return nil, err
	}
	return ExecDescribeCtx(context.Background(), g, q, Options{})
}

// ExecDescribeCtx executes a parsed DESCRIBE query (see ExecAskCtx).
func ExecDescribeCtx(ctx context.Context, g *rdf.Graph, q *Query, opts Options) (*rdf.Graph, error) {
	ev := newEvaluator(ctx, g, opts)
	rows, err := ev.evalWhere(q.Where)
	if err != nil {
		return nil, err
	}
	resources := map[rdf.Term]struct{}{}
	for _, n := range q.Describe {
		if !n.IsVar() {
			resources[n.Term] = struct{}{}
			continue
		}
		for i := 0; i < rows.n(); i++ {
			if t, ok := ev.nodeTerm(n, rows.row(i)); ok && t.IsResource() {
				resources[t] = struct{}{}
			}
		}
	}
	out := rdf.NewGraph()
	for res := range resources {
		err := g.MatchCtx(ctx, res, rdf.Any, rdf.Any, func(t rdf.Triple) bool {
			out.Add(t)
			if t.O.IsBlank() {
				g.Match(t.O, rdf.Any, rdf.Any, func(t2 rdf.Triple) bool {
					out.Add(t2)
					return true
				})
			}
			return true
		})
		if err != nil {
			observeAbort(opts.Trace.Root(), err)
			return nil, err
		}
	}
	return out, nil
}

// evalWhere evaluates a bare group pattern — the WHERE of ASK, CONSTRUCT,
// DESCRIBE and updates — in a scope of its own, where every variable has a
// slot. The caller reads the rows back through nodeTerm / instantiate.
func (ev *evaluator) evalWhere(gp *GroupPattern) (*batch, error) {
	ev.sc = &scope{slots: map[string]int{}}
	visitGroupVars(gp, false, ev.sc.add)
	root := ev.cur // the trace root, when the caller traces
	rows := ev.evalGroup(gp, unitBatch(ev.sc.width()))
	if err := ev.cancel.cause(); err != nil {
		observeAbort(root, err)
		return nil, err
	}
	return rows, nil
}

// nodeTerm resolves a template node against a solution row; ok is false for
// a variable the row leaves unbound.
func (ev *evaluator) nodeTerm(n Node, row []rdf.ID) (rdf.Term, bool) {
	if !n.IsVar() {
		return n.Term, true
	}
	if s := ev.sc.slot(n.Var); s >= 0 && row[s] != 0 {
		return ev.dict.term(row[s]), true
	}
	return rdf.Term{}, false
}

// instantiate builds the template's triples for every solution row,
// skipping instantiations with an unbound variable or an ill-formed triple
// (literal subject, non-IRI predicate).
func (ev *evaluator) instantiate(tmpl []TriplePattern, rows *batch) []rdf.Triple {
	var out []rdf.Triple
	for i := 0; i < rows.n(); i++ {
		row := rows.row(i)
		for _, tp := range tmpl {
			s, okS := ev.nodeTerm(tp.S, row)
			p, okP := ev.nodeTerm(tp.P, row)
			o, okO := ev.nodeTerm(tp.O, row)
			if !okS || !okP || !okO || s.IsLiteral() || p.Kind != rdf.KindIRI {
				continue
			}
			out = append(out, rdf.Triple{S: s, P: p, O: o})
		}
	}
	return out
}

// ExecSelect executes a parsed SELECT query.
func ExecSelect(g *rdf.Graph, q *Query) (*Results, error) {
	return ExecSelectOpts(g, q, Options{})
}

// execSelect evaluates the query and decodes its solutions: the one place
// IDs become terms. The projected ID table goes through the graph
// dictionary under a single lock acquisition into one flat term table, and
// Results.Rows are views into it.
func (ev *evaluator) execSelect(q *Query) (*Results, error) {
	vars, rows, err := ev.selectRows(q)
	if err != nil {
		return nil, err
	}
	res := &Results{Vars: vars, Rows: make([][]rdf.Term, rows.n())}
	if len(vars) == 0 {
		return res, nil
	}
	table := ev.g.TermsOf(rows.vals)
	if len(ev.dict.scratch) > 0 {
		for i, id := range rows.vals {
			if id&scratchBit != 0 {
				table[i] = ev.dict.term(id)
			}
		}
	}
	for i := range res.Rows {
		res.Rows[i] = table[i*len(vars) : (i+1)*len(vars) : (i+1)*len(vars)]
	}
	return res, nil
}

// selectRows runs a SELECT through its whole pipeline in ID space and
// returns the projection with one column per projected variable.
func (ev *evaluator) selectRows(q *Query) ([]string, *batch, error) {
	// A subquery re-enters here with its own scope.
	saved := ev.sc
	ev.sc = selectScope(q)
	defer func() { ev.sc = saved }()
	t0 := time.Now()
	ms := ev.enterSpan("match")
	pm, pmt := ev.profEnter("match", "")
	rows := ev.evalGroup(q.Where, unitBatch(ev.sc.width()))
	ev.profExit(pm, pmt, 1, rows.n())
	ms.SetAttr("rows", rows.n())
	ev.exitSpan(ms)
	observeSince(phaseMatch, t0)
	if err := ev.cancel.cause(); err != nil {
		return nil, nil, err
	}
	grouped := len(q.GroupBy) > 0 || len(q.Having) > 0 ||
		slices.ContainsFunc(q.Select.Items, func(it SelectItem) bool { return HasAggregate(it.Expr) })
	// The modifier pipeline follows SPARQL 1.1 §18.2.4: the solution
	// sequence is first extended with the SELECT-expression values (grouping
	// and aggregation produce one extended solution per group), then ORDER BY
	// sorts the *pre-projection* solutions — so a sort key does not have to
	// be projected — and only then the projection drops variables, DISTINCT
	// dedupes projected rows, and OFFSET/LIMIT slice.
	work := rows
	order := q.OrderBy
	var err error
	t1 := time.Now()
	if grouped {
		as := ev.enterSpan("aggregate")
		as.SetAttr("groupBy", len(q.GroupBy))
		pa, pat := ev.profEnter("aggregate", "")
		work, order, err = ev.aggregate(q, rows)
		ev.profExit(pa, pat, rows.n(), work.n())
		ev.exitSpan(as)
		observeSince(phaseAggregate, t1)
	} else {
		ps := ev.enterSpan("project")
		pe, pet := ev.profEnter("extend", "")
		work = ev.extend(q, rows)
		ev.profExit(pe, pet, rows.n(), work.n())
		ev.exitSpan(ps)
		observeSince(phaseProject, t1)
	}
	if err != nil {
		return nil, nil, err
	}
	if err := ev.cancel.cause(); err != nil {
		return nil, nil, err
	}
	t2 := time.Now()
	mods := ev.enterSpan("modifiers")
	pmod, pmodt := ev.profEnter("modifiers", "")
	if len(order) > 0 {
		work = ev.orderBy(work, order)
	}
	vars, out := ev.project(q, work)
	if q.Select.Distinct {
		out = distinct(out)
	}
	lo, hi := min(q.Offset, out.n()), out.n()
	if q.Limit >= 0 && q.Limit < hi-lo {
		hi = lo + q.Limit
	}
	out.vals = out.vals[lo*out.width : hi*out.width]
	ev.profExit(pmod, pmodt, work.n(), out.n())
	mods.SetAttr("rows", out.n())
	ev.exitSpan(mods)
	observeSince(phaseModifiers, t2)
	return vars, out, nil
}

// evalGroup evaluates a group graph pattern over the input rows, returning
// the joined solutions. Per SPARQL group scoping, filters logically apply
// after the other elements of the group; as an optimization a filter is
// *pushed down* — applied as soon as every variable it mentions is surely
// bound — which prunes intermediate results early. Filters using BOUND or
// EXISTS always wait until group end (their truth can change while the
// group is still being built). The input batch is never modified.
func (ev *evaluator) evalGroup(gp *GroupPattern, input *batch) *batch {
	cur := input
	empty := &batch{width: input.width}
	// Variables surely bound so far (input rows may bind more per-row, but
	// only guarantees matter here).
	bound := map[string]bool{}
	// estBound tracks estimation-only bindings — variables bound via
	// VALUES/BIND/input rows that the sure-bound set cannot claim but the
	// cardinality math and the placement of property paths should credit.
	estBound := map[string]bool{}
	if input.n() > 0 {
		for slot, id := range input.row(0) {
			if id != 0 {
				estBound[ev.sc.names[slot]] = true
			}
		}
	}
	// The group's filters are registered before the walk so a run can pick
	// up a filter that textually follows it; group scoping makes filters
	// apply to the whole group regardless of position, and the sure-bound
	// gate plus deferToEnd keep pushdown semantics unchanged.
	filters := groupFilters(gp, ev.noPushdown)
	bind := func(vars ...string) {
		for _, v := range vars {
			bound[v] = true
			estBound[v] = true
		}
	}
	bindSet := func(vars map[string]bool) {
		for v := range vars {
			bind(v)
		}
	}
	walk := groupWalk{elems: gp.Elems, spanFilters: !ev.noPushdown, textual: ev.noReorder}
	for {
		if ev.cancel.poll() {
			return empty
		}
		triples, elem := walk.next(estBound)
		if triples == nil && elem == nil {
			break
		}
		switch {
		case triples != nil && triples[0].Path != nil:
			cur = ev.evalPathTriple(triples[0], cur)
			bind(triples[0].Vars()...)
		case triples != nil:
			// One run of plain triple patterns: the planner orders it and
			// places each pushed-down filter right after the step that binds
			// its last variable, so filters prune inside the run instead of
			// breaking it.
			preSure := cloneVarSet(bound)
			preEst := cloneVarSet(estBound)
			for _, tp := range triples {
				bind(tp.Vars()...)
			}
			cur = ev.evalTripleRun(triples, takeReady(filters, bound), preSure, preEst, cur)
		case elem.Optional != nil:
			cur = ev.evalOptional(elem.Optional, cur)
			// OPTIONAL binds nothing surely.
		case elem.Union != nil:
			cur = ev.evalUnion(elem.Union, cur)
			bindSet(surelyBoundInUnion(elem.Union))
		case elem.Group != nil:
			cur = ev.evalGroup(elem.Group, cur)
			bindSet(surelyBound(elem.Group))
		case elem.Bind != nil:
			cur = ev.evalBind(elem.Bind, cur)
			// BIND may leave the var unbound on expression error, so it binds
			// nothing surely — but for cardinality estimation the variable
			// arrives bound in (almost) every row.
			estBound[elem.Bind.Var] = true
		case elem.Values != nil:
			cur = ev.evalValues(elem.Values, cur)
			// A VALUES column with no UNDEF binds its variable in every row;
			// columns with UNDEF rows bind nothing surely but still inform
			// cardinality estimation.
			for j, v := range elem.Values.Vars {
				if elem.Values.sure(j) {
					bound[v] = true
				}
				estBound[v] = true
			}
		case elem.SubQuery != nil:
			cur = ev.evalSubQuery(elem.SubQuery, cur)
			// Projection may contain unbound results; be conservative.
		case elem.Minus != nil:
			cur = ev.evalMinus(elem.Minus, cur)
		}
		// Operator-boundary governance: any element may have grown the row
		// set past the budget (joins additionally check while producing, see
		// join.go).
		if cur.n() == 0 || ev.overBudget(cur.n()) {
			return empty
		}
		for _, f := range filters {
			if f.ready(bound) {
				cur = ev.applyFilter(f.expr, cur, false)
				f.applied = true
			}
		}
		if cur.n() == 0 {
			return empty
		}
	}
	for _, f := range filters {
		if ev.cancel.poll() {
			return empty
		}
		if !f.applied {
			cur = ev.applyFilter(f.expr, cur, false)
		}
	}
	return cur
}

// groupFilter is one FILTER of a group pattern on its way to being applied.
type groupFilter struct {
	expr Expr
	// vars are the variables the expression mentions (EXISTS patterns
	// excluded: they make the filter wait for group end anyway).
	vars map[string]bool
	// deferToEnd forces evaluation after the whole group: the filter uses
	// BOUND or EXISTS, or pushdown is off.
	deferToEnd bool
	applied    bool
}

// groupFilters registers every FILTER of the group; with noPushdown all of
// them wait for group end.
func groupFilters(gp *GroupPattern, noPushdown bool) []*groupFilter {
	var out []*groupFilter
	for _, e := range gp.Elems {
		if e.Filter == nil {
			continue
		}
		f := &groupFilter{expr: e.Filter, vars: map[string]bool{}, deferToEnd: noPushdown || usesBoundOrExists(e.Filter)}
		visitExprVars(e.Filter, func(v string) { f.vars[v] = true }, nil)
		out = append(out, f)
	}
	return out
}

// takeReady marks the pending filters that can be pushed down now as applied
// and returns them for the plan of the run about to execute to place.
func takeReady(filters []*groupFilter, bound map[string]bool) []*runFilter {
	var pushed []*runFilter
	for _, f := range filters {
		if f.ready(bound) {
			f.applied = true
			pushed = append(pushed, &runFilter{expr: f.expr, vars: f.vars})
		}
	}
	return pushed
}

// ready reports whether the filter is still pending and may apply as soon
// as it does: every variable it mentions is surely bound.
func (f *groupFilter) ready(bound map[string]bool) bool {
	if f.applied || f.deferToEnd {
		return false
	}
	for v := range f.vars {
		if !bound[v] {
			return false
		}
	}
	return true
}

// groupWalk hands out the elements of a group pattern in evaluation order —
// the one place that order is decided, for evalGroup and explainGroup alike.
// Everything but a triple pattern comes at its textual position. Triple
// patterns come by the stretch: the maximal sequence of consecutive triple
// patterns, reaching across FILTERs when spanFilters is set (the caller
// pre-registers those). A stretch without a property path is one run, joined
// in the order the planner picks. A stretch with paths is cut into pieces by
// placeTriples, one piece per call.
type groupWalk struct {
	elems                []PatternElem
	spanFilters, textual bool
	i                    int
	rest                 []*TriplePattern // of the current stretch, not yet handed out
}

// next returns a run of plain triple patterns, a single path triple, or the
// next element of another kind; both results are nil at the end of the group.
// bound names the variables bound so far, for estimation purposes.
func (w *groupWalk) next(bound map[string]bool) ([]*TriplePattern, *PatternElem) {
	if len(w.rest) == 0 {
		if w.i == len(w.elems) {
			return nil, nil
		}
		if w.elems[w.i].Triple == nil {
			w.i++
			return nil, &w.elems[w.i-1]
		}
		for ; w.i < len(w.elems); w.i++ {
			if e := w.elems[w.i]; e.Triple != nil {
				w.rest = append(w.rest, e.Triple)
			} else if e.Filter == nil || !w.spanFilters {
				break
			}
		}
	}
	var piece []*TriplePattern
	piece, w.rest = placeTriples(w.rest, bound, w.textual)
	return piece, nil
}

// placeTriples splits what a stretch has left into the piece to evaluate
// next and the remainder, both in textual order. Without a path the stretch
// is one piece. With paths (a path is always a piece of its own):
//
//  1. every plain triple connected, directly or through other remaining
//     plain triples, to a bound variable is the next run;
//  2. otherwise the first path with a bound or constant end is next;
//  3. otherwise — nothing left touches what is bound — the first plain
//     triple and what is connected to it is the next run;
//  4. otherwise only paths with two free ends remain, and the first is next.
//
// So a path is never expanded from all sources while an order exists that
// binds one of its ends. In textual mode the stretch is cut at its paths and
// nowhere else.
func placeTriples(rest []*TriplePattern, bound map[string]bool, textual bool) (piece, remaining []*TriplePattern) {
	firstPath, anchoredPath, firstPlain := -1, -1, -1
	for i, tp := range rest {
		if tp.Path == nil {
			if firstPlain < 0 {
				firstPlain = i
			}
			continue
		}
		if firstPath < 0 {
			firstPath = i
		}
		if anchoredPath < 0 && (!tp.S.IsVar() || !tp.O.IsVar() || tp.touches(bound)) {
			anchoredPath = i
		}
	}
	switch {
	case firstPath < 0:
		return rest, nil
	case textual:
		n := max(firstPath, 1)
		return rest[:n], rest[n:]
	}
	in := make([]bool, len(rest))
	// connected marks the plain triples reachable from the variables of
	// reach, which it grows as it goes, and reports whether there are any.
	connected := func(reach map[string]bool) bool {
		found := false
		for grew := true; grew; {
			grew = false
			for i, tp := range rest {
				if in[i] || tp.Path != nil || !tp.touches(reach) {
					continue
				}
				in[i], grew, found = true, true, true
				for _, v := range tp.Vars() {
					reach[v] = true
				}
			}
		}
		return found
	}
	switch {
	case connected(cloneVarSet(bound)):
	case anchoredPath >= 0:
		in[anchoredPath] = true
	case firstPlain >= 0:
		in[firstPlain] = true
		seed := map[string]bool{}
		for _, v := range rest[firstPlain].Vars() {
			seed[v] = true
		}
		connected(seed)
	default:
		in[firstPath] = true
	}
	for i, tp := range rest {
		if in[i] {
			piece = append(piece, tp)
		} else {
			remaining = append(remaining, tp)
		}
	}
	return piece, remaining
}

// touches reports whether the pattern mentions a variable of the set. (The
// predicate of a path triple is the zero Node, a variable without a name.)
func (tp TriplePattern) touches(vars map[string]bool) bool {
	for _, n := range [3]Node{tp.S, tp.P, tp.O} {
		if n.IsVar() && n.Var != "" && vars[n.Var] {
			return true
		}
	}
	return false
}

// sure reports whether VALUES column j binds its variable in every row: the
// block has rows and none holds UNDEF there.
func (ve *ValuesElem) sure(j int) bool {
	for _, row := range ve.Rows {
		if row[j].IsZero() {
			return false
		}
	}
	return len(ve.Rows) > 0
}

// usesBoundOrExists reports whether the expression's value could change as
// more of the group is evaluated even with its variables bound.
func usesBoundOrExists(e Expr) bool {
	found := false
	walkExpr(e, func(x Expr) bool {
		switch x := x.(type) {
		case ExprExists:
			found = true
		case ExprCall:
			found = found || x.Func == "BOUND" || x.Func == "COALESCE"
		}
		return !found
	})
	return found
}

// surelyBound returns the variables a group pattern always binds.
func surelyBound(gp *GroupPattern) map[string]bool {
	out := map[string]bool{}
	for _, e := range gp.Elems {
		switch {
		case e.Triple != nil:
			for _, v := range e.Triple.Vars() {
				out[v] = true
			}
		case e.Group != nil:
			for v := range surelyBound(e.Group) {
				out[v] = true
			}
		case e.Union != nil:
			for v := range surelyBoundInUnion(e.Union) {
				out[v] = true
			}
		}
	}
	return out
}

// surelyBoundInUnion returns the intersection of the branches' sure
// bindings.
func surelyBoundInUnion(u *UnionPattern) map[string]bool {
	if len(u.Alternatives) == 0 {
		return nil
	}
	out := surelyBound(u.Alternatives[0])
	for _, alt := range u.Alternatives[1:] {
		b := surelyBound(alt)
		for v := range out {
			if !b[v] {
				delete(out, v)
			}
		}
	}
	return out
}

func (ev *evaluator) evalOptional(opt *GroupPattern, input *batch) *batch {
	s := ev.enterSpan("optional")
	s.SetAttr("rows_in", input.n())
	po, pot := ev.profEnter("optional", "")
	w := rowWriter{width: input.width}
	one := batch{width: input.width}
	for i, n := 0, input.n(); i < n; i++ {
		if ev.cancel.aborted() {
			break
		}
		one.vals = input.row(i)
		if ext := ev.evalGroup(opt, &one); ext.n() > 0 {
			w.addAll(ext)
		} else {
			w.add(one.vals)
		}
	}
	out := w.batch()
	ev.profExit(po, pot, input.n(), out.n())
	s.SetAttr("rows_out", out.n())
	ev.exitSpan(s)
	return out
}

func (ev *evaluator) evalUnion(u *UnionPattern, input *batch) *batch {
	s := ev.enterSpan("union")
	s.SetAttr("alternatives", len(u.Alternatives))
	pu, put := ev.profEnter("union", "")
	w := rowWriter{width: input.width}
	for _, alt := range u.Alternatives {
		w.addAll(ev.evalGroup(alt, input))
	}
	out := w.batch()
	ev.profExit(pu, put, input.n(), out.n())
	s.SetAttr("rows_out", out.n())
	ev.exitSpan(s)
	return out
}

func (ev *evaluator) evalBind(be *BindElem, input *batch) *batch {
	if ev.sc.slot(be.Var) < 0 {
		return input // nothing reads the variable
	}
	return ev.assign(input, []SelectItem{{Var: be.Var, Expr: be.Expr}})
}

// assign returns the rows with each item's expression value bound to its
// variable (BIND, and the algebra's Extend for SELECT expressions). Items
// evaluate in order against the row extended so far; an expression error
// leaves the variable as it was, per the spec's error semantics.
func (ev *evaluator) assign(rows *batch, items []SelectItem) *batch {
	env := exprEnv{ev: ev}
	slots := make([]int, len(items))
	for j, it := range items {
		slots[j] = ev.sc.slot(it.Var)
	}
	out := &batch{width: rows.width, vals: slices.Clone(rows.vals)}
	for i, n := 0, out.n(); i < n; i++ {
		row := out.row(i)
		for j, it := range items {
			if it.Expr == nil {
				continue
			}
			if v, err := env.evalExpr(it.Expr, row); err == nil {
				row[slots[j]] = ev.dict.id(v)
			}
		}
	}
	return out
}

func (ev *evaluator) evalValues(ve *ValuesElem, input *batch) *batch {
	// The block as an ID table (0 = UNDEF).
	table := make([]rdf.ID, 0, len(ve.Rows)*len(ve.Vars))
	for _, row := range ve.Rows {
		for _, t := range row {
			id := rdf.ID(0)
			if !t.IsZero() {
				id = ev.dict.id(t)
			}
			table = append(table, id)
		}
	}
	return ev.joinTable(input, ve.Vars, table, len(ve.Rows))
}

// evalSubQuery joins the input with the subquery's projection: the subquery
// runs once, in its own scope.
func (ev *evaluator) evalSubQuery(q *Query, input *batch) *batch {
	s := ev.enterSpan("subquery")
	defer ev.exitSpan(s)
	ps, pst := ev.profEnter("subquery", "")
	out := &batch{width: input.width}
	if vars, sub, err := ev.selectRows(q); err == nil {
		out = ev.joinTable(input, vars, sub.vals, sub.n())
	}
	ev.profExit(ps, pst, input.n(), out.n())
	return out
}

// joinTable joins the input with a table of nrows solutions over vars, flat
// with one column per variable (VALUES rows, a subquery's projection): every
// input row is extended by every compatible table row, input-major. The
// table's columns map onto the scope's slots of the same names; 0 is
// unbound on both sides.
func (ev *evaluator) joinTable(input *batch, vars []string, table []rdf.ID, nrows int) *batch {
	slots := make([]int, len(vars))
	for j, v := range vars {
		slots[j] = ev.sc.slot(v)
	}
	w := rowWriter{width: input.width}
	for i, n := 0, input.n(); i < n; i++ {
		if ev.cancel.aborted() {
			break
		}
		row := input.row(i)
	next:
		for r := 0; r < nrows; r++ {
			vals := table[r*len(vars) : (r+1)*len(vars)]
			for j, s := range slots {
				if s >= 0 && vals[j] != 0 && row[s] != 0 && row[s] != vals[j] {
					continue next
				}
			}
			out := w.add(row)
			for j, s := range slots {
				if s >= 0 && vals[j] != 0 {
					out[s] = vals[j]
				}
			}
		}
	}
	return w.batch()
}

func (ev *evaluator) evalMinus(m *GroupPattern, input *batch) *batch {
	s := ev.enterSpan("minus")
	defer ev.exitSpan(s)
	pm, pmt := ev.profEnter("minus", "")
	removed := ev.evalGroup(m, unitBatch(input.width))
	w := rowWriter{width: input.width}
	for i, n := 0, input.n(); i < n; i++ {
		if i%pollEvery == 0 && ev.cancel.poll() {
			break
		}
		row := input.row(i)
		excluded := false
		for r, nr := 0, removed.n(); r < nr && !excluded; r++ {
			// Excluded by a solution sharing at least one variable with the
			// row and agreeing on every shared one.
			shared, agree := false, true
			for k, id := range removed.row(r) {
				if id != 0 && row[k] != 0 {
					shared = true
					if row[k] != id {
						agree = false
						break
					}
				}
			}
			excluded = shared && agree
		}
		if !excluded {
			w.add(row)
		}
	}
	out := w.batch()
	ev.profExit(pm, pmt, input.n(), out.n())
	return out
}

// extend returns the solution rows extended with the SELECT-expression
// values bound to their aliases (the algebra's Extend, SPARQL 1.1
// §18.2.4.4), so ORDER BY can see them before projection — a later select
// expression may reference an earlier alias. The input is returned
// untouched when the projection has no expressions.
func (ev *evaluator) extend(q *Query, rows *batch) *batch {
	hasExpr := slices.ContainsFunc(q.Select.Items, func(it SelectItem) bool { return it.Expr != nil })
	if q.Select.Star || !hasExpr {
		return rows
	}
	return ev.assign(rows, q.Select.Items)
}

// project keeps the projected variables of the (extended, ordered) solution
// rows: one output column per variable. SELECT * lists the variables bound
// in at least one row, sorted.
func (ev *evaluator) project(q *Query, rows *batch) ([]string, *batch) {
	var vars []string
	if q.Select.Star {
		boundSlot := make([]bool, rows.width)
		for i, id := range rows.vals {
			if id != 0 {
				boundSlot[i%rows.width] = true
			}
		}
		for slot, name := range ev.sc.names {
			if boundSlot[slot] && !strings.HasPrefix(name, "_anon") {
				vars = append(vars, name)
			}
		}
		sort.Strings(vars)
	} else {
		for _, it := range q.Select.Items {
			vars = append(vars, it.Var)
		}
	}
	out := newBatch(max(1, len(vars)), rows.n())
	out.vals = out.vals[:cap(out.vals)]
	for j, v := range vars {
		slot := ev.sc.slot(v)
		if slot < 0 {
			continue
		}
		for i, n := 0, rows.n(); i < n; i++ {
			out.vals[i*out.width+j] = rows.vals[i*rows.width+slot]
		}
	}
	return vars, out
}

// distinct keeps the first occurrence of every row.
func distinct(rows *batch) *batch {
	seen := newTupleIndex(rows.width, rows.n())
	for i, n := 0, rows.n(); i < n; i++ {
		seen.add(rows.row(i))
	}
	return &batch{width: rows.width, vals: seen.keys}
}

// orderKeys evaluates every condition on a row, appending to keys. An
// unbound or erroring condition yields the zero key, which sorts lowest
// ascending, per SPARQL 1.1 §15.1.
func (ev *evaluator) orderKeys(keys []rdf.OrderKey, conds []OrderCond, row []rdf.ID) []rdf.OrderKey {
	env := exprEnv{ev: ev}
	for _, c := range conds {
		v, _ := env.evalExpr(c.Expr, row) // zero Term on error
		keys = append(keys, v.OrderKey())
	}
	return keys
}

// compareOrderKeys is the three-way comparator ORDER BY sorts with, over the
// keys of two rows. It is a strict weak order: only identical terms compare
// 0, in *both* directions — an earlier boolean formulation returned true
// both ways under DESC, which corrupts a stable sort.
func compareOrderKeys(conds []OrderCond, a, b []rdf.OrderKey) int {
	for i, c := range conds {
		if cmp := a[i].Compare(b[i]); cmp != 0 {
			if c.Desc {
				return -cmp
			}
			return cmp
		}
	}
	return 0
}

// orderBy stably sorts solution rows by the ORDER BY conditions, evaluating
// each condition once per row. It runs on the pre-projection solution
// sequence (see selectRows), so conditions may reference variables the
// projection drops.
func (ev *evaluator) orderBy(rows *batch, conds []OrderCond) *batch {
	n, k := rows.n(), len(conds)
	keys := make([]rdf.OrderKey, 0, n*k)
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
		keys = ev.orderKeys(keys, conds, rows.row(i))
	}
	slices.SortStableFunc(perm, func(a, b int32) int {
		return compareOrderKeys(conds, keys[int(a)*k:int(a+1)*k], keys[int(b)*k:int(b+1)*k])
	})
	out := newBatch(rows.width, n)
	for _, i := range perm {
		out.vals = append(out.vals, rows.row(int(i))...)
	}
	return out
}

// OrderComparator exposes the ORDER BY comparator over solution bindings
// for property-based testing (internal/conformance asserts it is a strict
// weak order: irreflexive, antisymmetric, transitive). It never mutates the
// graph and ignores resource limits.
func OrderComparator(g *rdf.Graph, conds []OrderCond) func(a, b Binding) int {
	ev := newEvaluator(context.Background(), g, Options{})
	ev.sc = &scope{slots: map[string]int{}}
	for _, c := range conds {
		visitExprVars(c.Expr, ev.sc.add, nil)
	}
	keys := func(b Binding) []rdf.OrderKey { return ev.orderKeys(nil, conds, ev.bindingRow(b)) }
	return func(a, b Binding) int { return compareOrderKeys(conds, keys(a), keys(b)) }
}

// bindingRow lays a Binding out as a row of the current scope; variables
// without a slot are dropped.
func (ev *evaluator) bindingRow(b Binding) []rdf.ID {
	row := make([]rdf.ID, ev.sc.width())
	for v, t := range b {
		if s := ev.sc.slot(v); s >= 0 {
			row[s] = ev.dict.id(t)
		}
	}
	return row
}
