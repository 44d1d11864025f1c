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
	// noReorder disables selectivity-based BGP join ordering (ablation #3
	// in DESIGN.md): patterns evaluate in textual order.
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
	// planner is the resolved BGP planner mode (PlannerAuto is resolved at
	// construction, so this is never PlannerAuto).
	planner PlannerMode
	// fbSites is the per-query feedback snapshot: scan site key (label +
	// bound-variable context) → observed (input, output) cardinality for
	// this query's fingerprint, taken once at construction so planning and
	// mid-query replans never lock the store. Nil when feedback is off or
	// the fingerprint has no valid entries.
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
	// for computed terms, and the decode cache (see rows.go).
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
	// NoReorder evaluates BGPs in textual order instead of
	// selectivity-ordered (for the join-ordering ablation).
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
	// Planner selects the BGP join-order planner. The zero value
	// (PlannerAuto) resolves to PlannerFeedback when Feedback is set and
	// PlannerDP otherwise; PlannerGreedy keeps the legacy single-pass
	// orderer for ablation runs. Ignored when NoReorder is set (textual
	// order wins).
	Planner PlannerMode
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
	// disables mid-query re-planning. Only cost-based planners replan.
	ReplanQError float64
}

func newEvaluator(ctx context.Context, g *rdf.Graph, opts Options) *evaluator {
	if ctx == nil {
		ctx = context.Background()
	}
	mode := opts.Planner
	if mode == PlannerAuto {
		if opts.Feedback != nil {
			mode = PlannerFeedback
		} else {
			mode = PlannerDP
		}
	}
	replan := opts.ReplanQError
	switch {
	case replan == 0:
		replan = defaultReplanQError
	case replan < 0:
		replan = 0
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
		planner:      mode,
		replanFactor: replan,
		dict:         &termDict{g: g, ids: map[rdf.Term]rdf.ID{}, terms: map[rdf.ID]rdf.Term{}},
	}
	if mode == PlannerFeedback && opts.Feedback != nil && g != nil {
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
	var filters []*groupFilter
	// Reorder consecutive triple patterns for join selectivity (ablation #3
	// in DESIGN.md), leaving every other element in place. Under the
	// cost-based planners this greedy pass only fixes the placement of
	// property-path triples; plain-triple runs are re-ordered by the
	// join-order search inside runTriples.
	elems := ev.reorderTriples(gp.Elems)
	// Variables surely bound so far (input rows may bind more per-row, but
	// only guarantees matter here).
	bound := map[string]bool{}
	// costBased switches BGP runs to the cost-based planner: runs span
	// intervening filters (the planner places them inside the run), and
	// estBound tracks estimation-only bindings — variables bound via
	// VALUES/BIND/input rows that the sure-bound set cannot claim but the
	// cardinality math should credit.
	costBased := ev.planner != PlannerGreedy && !ev.noReorder
	var estBound map[string]bool
	if costBased {
		estBound = map[string]bool{}
		if input.n() > 0 {
			for slot, id := range input.row(0) {
				if id != 0 {
					estBound[ev.sc.names[slot]] = true
				}
			}
		}
		if !ev.noPushdown {
			// Pre-register the group's filters so a run can pick up a filter
			// that textually follows it; group scoping makes filters apply to
			// the whole group regardless of position, and the sure-bound gate
			// plus deferToEnd keep pushdown semantics unchanged.
			filters = groupFilters(gp)
		}
	}
	// ready reports whether a pending filter can be pushed down now.
	ready := func(f *groupFilter) bool { return !ev.noPushdown && f.ready(bound) }
	anyReady := func() bool {
		for _, f := range filters {
			if ready(f) {
				return true
			}
		}
		return false
	}
	bind := func(vars ...string) {
		for _, v := range vars {
			bound[v] = true
			if estBound != nil {
				estBound[v] = true
			}
		}
	}
	bindSet := func(vars map[string]bool) {
		for v := range vars {
			bind(v)
		}
	}
	for i := 0; i < len(elems); i++ {
		if ev.cancel.poll() {
			return empty
		}
		elem := elems[i]
		switch {
		case elem.Triple != nil && elem.Triple.Path != nil:
			cur = ev.evalPathTriple(elem.Triple, cur)
			bind(elem.Triple.Vars()...)
		case elem.Triple != nil && costBased:
			// Gather the maximal run of plain triple patterns, spanning
			// intervening filters (pre-registered above): the cost-based
			// planner re-orders the whole run and places each pushed-down
			// filter right after the step that binds its last variable, so
			// filters prune inside the run instead of breaking it.
			var run []*TriplePattern
			run, i = gatherRun(elems, i, !ev.noPushdown)
			preSure := cloneVarSet(bound)
			preEst := cloneVarSet(estBound)
			for _, tp := range run {
				bind(tp.Vars()...)
			}
			var pushed []*runFilter
			for _, f := range filters {
				if ready(f) {
					f.applied = true
					pushed = append(pushed, &runFilter{expr: f.expr, vars: f.vars})
				}
			}
			cur = ev.evalTripleRun(run, pushed, preSure, preEst, cur)
		case elem.Triple != nil:
			// Legacy greedy path: fuse the maximal run of consecutive plain
			// triple patterns into one pipeline. The run breaks where a
			// pushed-down filter becomes applicable, so filter pushdown still
			// prunes between patterns.
			run := []*TriplePattern{elem.Triple}
			bind(elem.Triple.Vars()...)
			for i+1 < len(elems) && elems[i+1].Triple != nil &&
				elems[i+1].Triple.Path == nil && !anyReady() {
				tp := elems[i+1].Triple
				run = append(run, tp)
				bind(tp.Vars()...)
				i++
			}
			cur = ev.evalTripleRun(run, nil, nil, nil, cur)
		case elem.Filter != nil:
			if !costBased || ev.noPushdown { // else pre-registered before the walk
				filters = append(filters, newGroupFilter(elem.Filter))
			}
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
			if estBound != nil {
				estBound[elem.Bind.Var] = true
			}
		case elem.Values != nil:
			cur = ev.evalValues(elem.Values, cur)
			// A VALUES column with no UNDEF binds its variable in every row;
			// columns with UNDEF rows bind nothing surely but still inform
			// cardinality estimation.
			for j, v := range elem.Values.Vars {
				if elem.Values.sure(j) {
					bound[v] = true
				}
				if estBound != nil {
					estBound[v] = true
				}
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
			if ready(f) {
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
	// deferToEnd forces evaluation after the whole group.
	deferToEnd bool
	applied    bool
}

func newGroupFilter(e Expr) *groupFilter {
	f := &groupFilter{expr: e, vars: map[string]bool{}, deferToEnd: usesBoundOrExists(e)}
	visitExprVars(e, func(v string) { f.vars[v] = true }, nil)
	return f
}

// groupFilters pre-registers every FILTER of the group.
func groupFilters(gp *GroupPattern) []*groupFilter {
	var out []*groupFilter
	for _, e := range gp.Elems {
		if e.Filter != nil {
			out = append(out, newGroupFilter(e.Filter))
		}
	}
	return out
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

// gatherRun returns the maximal run of plain triple patterns starting at
// elems[i] and the index of its last element; with spanFilters the run
// reaches across intervening FILTERs (pre-registered by the caller).
func gatherRun(elems []PatternElem, i int, spanFilters bool) ([]*TriplePattern, int) {
	run := []*TriplePattern{elems[i].Triple}
	for i+1 < len(elems) {
		nx := elems[i+1]
		switch {
		case nx.Triple != nil && nx.Triple.Path == nil:
			run = append(run, nx.Triple)
		case nx.Filter != nil && spanFilters:
		default:
			return run, i
		}
		i++
	}
	return run, i
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

// reorderTriples greedily orders maximal runs of triple patterns by
// estimated cardinality, preferring patterns connected to already-bound
// variables. Non-triple elements act as barriers — but the bindings they
// introduce (VALUES columns, BIND aliases, sure bindings of nested groups
// and unions, and the variables of earlier runs) seed the next run's
// estimation, so a pattern joined only through a VALUES/BIND variable no
// longer costs as fully unbound.
func (ev *evaluator) reorderTriples(elems []PatternElem) []PatternElem {
	if ev.noReorder {
		return elems
	}
	out := make([]PatternElem, 0, len(elems))
	pre := map[string]bool{}
	i := 0
	for i < len(elems) {
		if elems[i].Triple == nil {
			switch e := elems[i]; {
			case e.Values != nil:
				for _, v := range e.Values.Vars {
					pre[v] = true
				}
			case e.Bind != nil:
				pre[e.Bind.Var] = true
			case e.Group != nil:
				for v := range surelyBound(e.Group) {
					pre[v] = true
				}
			case e.Union != nil:
				for v := range surelyBoundInUnion(e.Union) {
					pre[v] = true
				}
			}
			out = append(out, elems[i])
			i++
			continue
		}
		j := i
		for j < len(elems) && elems[j].Triple != nil {
			j++
		}
		run := make([]*TriplePattern, 0, j-i)
		for _, e := range elems[i:j] {
			run = append(run, e.Triple)
		}
		for _, tp := range ev.orderRun(run, pre) {
			out = append(out, PatternElem{Triple: tp})
		}
		for _, tp := range run {
			for _, v := range tp.Vars() {
				pre[v] = true
			}
		}
		i = j
	}
	return out
}

// orderRun is the legacy greedy orderer: cheapest-estimate-first with a
// connectivity preference. pre seeds the bound set with variables flowing in
// from elements before the run.
func (ev *evaluator) orderRun(run []*TriplePattern, pre map[string]bool) []*TriplePattern {
	if len(run) <= 1 {
		return run
	}
	bound := cloneVarSet(pre)
	var ordered []*TriplePattern
	remaining := append([]*TriplePattern(nil), run...)
	for len(remaining) > 0 {
		bestIdx, bestScore := -1, 1<<62
		for idx, tp := range remaining {
			score := ev.estimate(tp, bound)
			// Prefer patterns sharing a variable with the bound set.
			connected := len(bound) == 0
			for _, v := range tp.Vars() {
				if bound[v] {
					connected = true
					break
				}
			}
			if !connected {
				score += 1 << 40
			}
			if score < bestScore {
				bestScore, bestIdx = score, idx
			}
		}
		tp := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		ordered = append(ordered, tp)
		for _, v := range tp.Vars() {
			bound[v] = true
		}
	}
	return ordered
}

// estimate approximates the cardinality of a pattern assuming bound
// variables act as constants of unknown value. Counts are two searches in a
// sorted permutation of the graph (rdf.Graph.MatchCountIDs), so repeated
// estimation (join reordering is O(k²) in pattern count, and interactive
// sessions re-plan the same patterns every click) never scans an index.
func (ev *evaluator) estimate(tp *TriplePattern, bound map[string]bool) int {
	if tp.Path != nil {
		return 1 << 20 // paths are expensive; schedule late
	}
	ids, ok := ev.constIDs(tp)
	if !ok {
		return 0 // a constant term the graph has never seen: no matches
	}
	base := ev.g.MatchCountIDs(ids[0], ids[1], ids[2])
	// Each bound variable position cuts the estimate (heuristic factor 10).
	for _, n := range []Node{tp.S, tp.O} {
		if n.IsVar() && bound[n.Var] && base > 1 {
			base = base/10 + 1
		}
	}
	return base
}

// constIDs resolves the pattern's constant positions to dictionary IDs
// (0 where variable). ok is false when a constant is absent from the
// dictionary, meaning the pattern can never match.
func (ev *evaluator) constIDs(tp *TriplePattern) ([3]rdf.ID, bool) {
	var ids [3]rdf.ID
	for i, n := range [3]Node{tp.S, tp.P, tp.O} {
		if n.IsVar() {
			continue
		}
		id, known := ev.g.TermID(n.Term)
		if !known {
			return ids, false
		}
		ids[i] = id
	}
	return ids, true
}

func (ev *evaluator) evalOptional(opt *GroupPattern, input *batch) *batch {
	s := ev.enterSpan("optional")
	s.SetAttr("rows_in", input.n())
	po, pot := ev.profEnter("optional", "")
	out := newBatch(input.width, input.n())
	one := batch{width: input.width}
	for i, n := 0, input.n(); i < n; i++ {
		if ev.cancel.aborted() {
			break
		}
		one.vals = input.row(i)
		if ext := ev.evalGroup(opt, &one); ext.n() > 0 {
			out.vals = append(out.vals, ext.vals...)
		} else {
			out.vals = append(out.vals, one.vals...)
		}
	}
	ev.profExit(po, pot, input.n(), out.n())
	s.SetAttr("rows_out", out.n())
	ev.exitSpan(s)
	return out
}

func (ev *evaluator) evalUnion(u *UnionPattern, input *batch) *batch {
	s := ev.enterSpan("union")
	s.SetAttr("alternatives", len(u.Alternatives))
	pu, put := ev.profEnter("union", "")
	out := &batch{width: input.width}
	for _, alt := range u.Alternatives {
		out.vals = append(out.vals, ev.evalGroup(alt, input).vals...)
	}
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
	out := newBatch(input.width, input.n())
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
			base := len(out.vals)
			out.vals = append(out.vals, row...)
			for j, s := range slots {
				if s >= 0 && vals[j] != 0 {
					out.vals[base+s] = vals[j]
				}
			}
		}
	}
	return out
}

func (ev *evaluator) evalMinus(m *GroupPattern, input *batch) *batch {
	s := ev.enterSpan("minus")
	defer ev.exitSpan(s)
	pm, pmt := ev.profEnter("minus", "")
	removed := ev.evalGroup(m, unitBatch(input.width))
	out := newBatch(input.width, input.n())
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
			out.vals = append(out.vals, row...)
		}
	}
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
