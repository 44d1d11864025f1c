package sparql

import (
	"context"
	"fmt"
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
	// varUses counts every textual reference to each variable across the
	// current SELECT query; materialize uses it to skip run-local variables
	// (projection pushdown). Nil (pruning off) outside execSelect.
	varUses map[string]int
	// varStar disables projection pruning for SELECT * queries.
	varStar bool
}

// overBudget checks a materialized intermediate binding set against the row
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
	res, err := ev.execSelect(q, []Binding{{}})
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

// Select parses and executes a SELECT query.
func Select(g *rdf.Graph, src string) (*Results, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if q.Form != FormSelect {
		return nil, fmt.Errorf("sparql: not a SELECT query")
	}
	return ExecSelect(g, q)
}

// Ask parses and executes an ASK query.
func Ask(g *rdf.Graph, src string) (bool, error) {
	return AskCtx(context.Background(), g, src)
}

// AskCtx is Ask under a context (see ExecSelectCtx for the semantics).
func AskCtx(ctx context.Context, g *rdf.Graph, src string) (bool, error) {
	q, err := Parse(src)
	if err != nil {
		return false, err
	}
	if q.Form != FormAsk {
		return false, fmt.Errorf("sparql: not an ASK query")
	}
	ev := newEvaluator(ctx, g, Options{})
	rows := ev.evalGroup(q.Where, []Binding{{}})
	if err := ev.cancel.cause(); err != nil {
		observeAbort(nil, err)
		return false, err
	}
	return len(rows) > 0, nil
}

// Construct parses and executes a CONSTRUCT query, returning the built graph.
func Construct(g *rdf.Graph, src string) (*rdf.Graph, error) {
	return ConstructCtx(context.Background(), g, src)
}

// ConstructCtx is Construct under a context (see ExecSelectCtx).
func ConstructCtx(ctx context.Context, g *rdf.Graph, src string) (*rdf.Graph, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if q.Form != FormConstruct {
		return nil, fmt.Errorf("sparql: not a CONSTRUCT query")
	}
	ev := newEvaluator(ctx, g, Options{})
	rows := ev.evalGroup(q.Where, []Binding{{}})
	if err := ev.cancel.cause(); err != nil {
		observeAbort(nil, err)
		return nil, err
	}
	out := rdf.NewGraph()
	for _, row := range rows {
		for _, tp := range q.Template {
			s, okS := instantiate(tp.S, row)
			p, okP := instantiate(tp.P, row)
			o, okO := instantiate(tp.O, row)
			if !okS || !okP || !okO {
				continue
			}
			if s.IsLiteral() || p.Kind != rdf.KindIRI {
				continue
			}
			out.Add(rdf.Triple{S: s, P: p, O: o})
		}
	}
	return out, nil
}

// Describe parses and executes a DESCRIBE query: the result graph holds
// every triple whose subject is a described resource, with one level of
// blank-node closure (a simple concise bounded description).
func Describe(g *rdf.Graph, src string) (*rdf.Graph, error) {
	return DescribeCtx(context.Background(), g, src)
}

// DescribeCtx is Describe under a context (see ExecSelectCtx).
func DescribeCtx(ctx context.Context, g *rdf.Graph, src string) (*rdf.Graph, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if q.Form != FormDescribe {
		return nil, fmt.Errorf("sparql: not a DESCRIBE query")
	}
	ev := newEvaluator(ctx, g, Options{})
	resources := map[rdf.Term]struct{}{}
	var rows []Binding
	if len(q.Where.Elems) > 0 {
		rows = ev.evalGroup(q.Where, []Binding{{}})
		if err := ev.cancel.cause(); err != nil {
			return nil, err
		}
	} else {
		rows = []Binding{{}}
	}
	for _, n := range q.Describe {
		if !n.IsVar() {
			resources[n.Term] = struct{}{}
			continue
		}
		for _, b := range rows {
			if t, ok := b[n.Var]; ok && t.IsResource() {
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
			observeAbort(nil, err)
			return nil, err
		}
	}
	return out, nil
}

func instantiate(n Node, b Binding) (rdf.Term, bool) {
	if !n.IsVar() {
		return n.Term, true
	}
	t, ok := b[n.Var]
	return t, ok
}

// ExecSelect executes a parsed SELECT query.
func ExecSelect(g *rdf.Graph, q *Query) (*Results, error) {
	return ExecSelectOpts(g, q, Options{})
}

func (ev *evaluator) execSelect(q *Query, input []Binding) (*Results, error) {
	// Projection pushdown: count every textual variable reference of this
	// query so materialize can skip run-local variables (saved/restored
	// because subqueries re-enter here with their own scope).
	savedUses, savedStar := ev.varUses, ev.varStar
	ev.varUses, ev.varStar = countVarUses(q)
	defer func() { ev.varUses, ev.varStar = savedUses, savedStar }()
	t0 := time.Now()
	ms := ev.enterSpan("match")
	pm, pmt := ev.profEnter("match", "")
	rows := ev.evalGroup(q.Where, input)
	ev.profExit(pm, pmt, len(input), len(rows))
	ms.SetAttr("rows", len(rows))
	ev.exitSpan(ms)
	observeSince(phaseMatch, t0)
	if err := ev.cancel.cause(); err != nil {
		return nil, err
	}
	grouped := len(q.GroupBy) > 0 || selectHasAggregate(q) || len(q.Having) > 0
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
		ev.profExit(pa, pat, len(rows), len(work))
		ev.exitSpan(as)
		observeSince(phaseAggregate, t1)
	} else {
		ps := ev.enterSpan("project")
		pe, pet := ev.profEnter("extend", "")
		work = ev.extend(q, rows)
		ev.profExit(pe, pet, len(rows), len(work))
		ev.exitSpan(ps)
		observeSince(phaseProject, t1)
	}
	if err != nil {
		return nil, err
	}
	if err := ev.cancel.cause(); err != nil {
		return nil, err
	}
	t2 := time.Now()
	mods := ev.enterSpan("modifiers")
	pmod, pmodt := ev.profEnter("modifiers", "")
	if len(order) > 0 {
		ev.orderBy(work, order)
	}
	res := ev.project(q, work)
	if q.Select.Distinct {
		res = distinct(res)
	}
	if q.Offset > 0 {
		if q.Offset >= len(res.Rows) {
			res.Rows = nil
		} else {
			res.Rows = res.Rows[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(res.Rows) {
		res.Rows = res.Rows[:q.Limit]
	}
	ev.profExit(pmod, pmodt, len(work), len(res.Rows))
	mods.SetAttr("rows", len(res.Rows))
	ev.exitSpan(mods)
	observeSince(phaseModifiers, t2)
	return res, nil
}

func selectHasAggregate(q *Query) bool {
	for _, it := range q.Select.Items {
		if it.Expr != nil && HasAggregate(it.Expr) {
			return true
		}
	}
	return false
}

// evalGroup evaluates a group graph pattern over input bindings, returning
// the joined solutions. Per SPARQL group scoping, filters logically apply
// after the other elements of the group; as an optimization a filter is
// *pushed down* — applied as soon as every variable it mentions is surely
// bound — which prunes intermediate results early. Filters using BOUND or
// EXISTS always wait until group end (their truth can change while the
// group is still being built).
func (ev *evaluator) evalGroup(gp *GroupPattern, input []Binding) []Binding {
	cur := input
	type pendingFilter struct {
		expr Expr
		vars map[string]bool
		// deferToEnd forces evaluation after the whole group.
		deferToEnd bool
		applied    bool
	}
	var filters []*pendingFilter
	// Reorder consecutive triple patterns for join selectivity (ablation #3
	// in DESIGN.md), leaving every other element in place. Under the
	// cost-based planners this greedy pass only fixes the placement of
	// property-path triples; plain-triple runs are re-ordered by the
	// join-order search inside runTriples.
	elems := ev.reorderTriples(gp.Elems)
	// Variables surely bound so far (input bindings may bind more per-row,
	// but only guarantees matter here).
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
		if len(input) > 0 {
			for v := range input[0] {
				estBound[v] = true
			}
		}
		if !ev.noPushdown {
			// Pre-register the group's filters so a run can pick up a filter
			// that textually follows it; group scoping makes filters apply to
			// the whole group regardless of position, and the sure-bound gate
			// plus deferToEnd keep pushdown semantics unchanged.
			for _, e := range gp.Elems {
				if e.Filter != nil {
					f := &pendingFilter{expr: e.Filter, vars: map[string]bool{}}
					collectExprVars(e.Filter, f.vars)
					f.deferToEnd = usesBoundOrExists(e.Filter)
					filters = append(filters, f)
				}
			}
		}
	}
	env := exprEnv{ev: ev}
	applyFilter := func(f *pendingFilter) {
		fs := ev.cur.StartChild("filter")
		if fs != nil {
			fs.SetAttr("expr", fmt.Sprint(f.expr))
			fs.SetAttr("rows_in", len(cur))
		}
		flabel := ""
		if ev.prof != nil {
			flabel = f.expr.String()
		}
		pf, pft := ev.profEnter("filter", flabel)
		rowsIn := len(cur)
		var out []Binding
		for i, b := range cur {
			if i%pollEvery == 0 && ev.cancel.poll() {
				break
			}
			if v, err := env.evalBool(f.expr, b); err == nil && v {
				out = append(out, b)
			}
		}
		cur = out
		f.applied = true
		ev.profExit(pf, pft, rowsIn, len(cur))
		if fs != nil {
			fs.SetAttr("rows_out", len(cur))
			fs.Finish()
		}
	}
	filterReady := func() bool {
		if ev.noPushdown {
			return false
		}
		for _, f := range filters {
			if f.applied || f.deferToEnd {
				continue
			}
			ready := true
			for v := range f.vars {
				if !bound[v] {
					ready = false
					break
				}
			}
			if ready {
				return true
			}
		}
		return false
	}
	applyReady := func() {
		if ev.noPushdown {
			return
		}
		for _, f := range filters {
			if f.applied || f.deferToEnd {
				continue
			}
			ready := true
			for v := range f.vars {
				if !bound[v] {
					ready = false
					break
				}
			}
			if ready {
				applyFilter(f)
			}
		}
	}
	for i := 0; i < len(elems); i++ {
		if ev.cancel.poll() {
			return nil
		}
		elem := elems[i]
		switch {
		case elem.Triple != nil && elem.Triple.Path != nil:
			cur = ev.evalPathTriple(elem.Triple, cur)
			for _, v := range elem.Triple.Vars() {
				bound[v] = true
				if estBound != nil {
					estBound[v] = true
				}
			}
		case elem.Triple != nil && costBased:
			// Gather the maximal run of plain triple patterns, spanning
			// intervening filters (pre-registered above): the cost-based
			// planner re-orders the whole run and places each pushed-down
			// filter right after the step that binds its last variable, so
			// filters prune inside the ID-space pipeline instead of breaking
			// the run.
			run := []*TriplePattern{elem.Triple}
			for i+1 < len(elems) {
				nx := elems[i+1]
				if nx.Triple != nil && nx.Triple.Path == nil {
					run = append(run, nx.Triple)
					i++
					continue
				}
				if nx.Filter != nil && !ev.noPushdown {
					i++ // pre-registered; placed inside the run below
					continue
				}
				break
			}
			preSure := cloneVarSet(bound)
			preEst := cloneVarSet(estBound)
			for _, tp := range run {
				for _, v := range tp.Vars() {
					bound[v] = true
					estBound[v] = true
				}
			}
			var pushed []*runFilter
			if !ev.noPushdown {
				for _, f := range filters {
					if f.applied || f.deferToEnd {
						continue
					}
					ready := true
					for v := range f.vars {
						if !bound[v] {
							ready = false
							break
						}
					}
					if ready {
						f.applied = true
						pushed = append(pushed, &runFilter{expr: f.expr, vars: f.vars})
					}
				}
			}
			cur = ev.evalTripleRun(run, pushed, preSure, preEst, cur)
		case elem.Triple != nil:
			// Legacy greedy path: fuse the maximal run of consecutive plain
			// triple patterns into one ID-space pipeline — intermediate rows
			// stay as ID slices. The run breaks where a pushed-down filter
			// becomes applicable, so filter pushdown still prunes between
			// patterns.
			run := []*TriplePattern{elem.Triple}
			for _, v := range elem.Triple.Vars() {
				bound[v] = true
			}
			for i+1 < len(elems) && elems[i+1].Triple != nil &&
				elems[i+1].Triple.Path == nil && !filterReady() {
				tp := elems[i+1].Triple
				run = append(run, tp)
				for _, v := range tp.Vars() {
					bound[v] = true
				}
				i++
			}
			cur = ev.evalTripleRun(run, nil, nil, nil, cur)
		case elem.Filter != nil:
			if costBased && !ev.noPushdown {
				break // pre-registered before the walk
			}
			f := &pendingFilter{expr: elem.Filter, vars: map[string]bool{}}
			collectExprVars(elem.Filter, f.vars)
			f.deferToEnd = usesBoundOrExists(elem.Filter)
			filters = append(filters, f)
		case elem.Optional != nil:
			cur = ev.evalOptional(elem.Optional, cur)
			// OPTIONAL binds nothing surely.
		case elem.Union != nil:
			cur = ev.evalUnion(elem.Union, cur)
			for v := range surelyBoundInUnion(elem.Union) {
				bound[v] = true
				if estBound != nil {
					estBound[v] = true
				}
			}
		case elem.Group != nil:
			cur = ev.evalGroup(elem.Group, cur)
			for v := range surelyBound(elem.Group) {
				bound[v] = true
				if estBound != nil {
					estBound[v] = true
				}
			}
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
				sure := len(elem.Values.Rows) > 0
				for _, row := range elem.Values.Rows {
					if row[j].IsZero() {
						sure = false
						break
					}
				}
				if sure {
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
		if len(cur) == 0 {
			return nil
		}
		// Operator-boundary governance: any element may have grown the
		// binding set past the budget (joins additionally check while
		// producing, see join.go).
		if ev.overBudget(len(cur)) {
			return nil
		}
		applyReady()
		if len(cur) == 0 {
			return nil
		}
	}
	for _, f := range filters {
		if ev.cancel.poll() {
			return nil
		}
		if !f.applied {
			applyFilter(f)
		}
	}
	return cur
}

// collectExprVars accumulates the variables an expression mentions.
func collectExprVars(e Expr, acc map[string]bool) {
	switch x := e.(type) {
	case ExprVar:
		acc[x.Name] = true
	case ExprUnary:
		collectExprVars(x.Sub, acc)
	case ExprBinary:
		collectExprVars(x.Left, acc)
		collectExprVars(x.Right, acc)
	case ExprCall:
		for _, a := range x.Args {
			collectExprVars(a, acc)
		}
	case ExprIn:
		collectExprVars(x.Left, acc)
		for _, a := range x.List {
			collectExprVars(a, acc)
		}
	case ExprAggregate:
		if x.Arg != nil {
			collectExprVars(x.Arg, acc)
		}
	}
}

// usesBoundOrExists reports whether the expression's value could change as
// more of the group is evaluated even with its variables bound.
func usesBoundOrExists(e Expr) bool {
	switch x := e.(type) {
	case ExprExists:
		return true
	case ExprCall:
		if x.Func == "BOUND" || x.Func == "COALESCE" {
			return true
		}
		for _, a := range x.Args {
			if usesBoundOrExists(a) {
				return true
			}
		}
	case ExprUnary:
		return usesBoundOrExists(x.Sub)
	case ExprBinary:
		return usesBoundOrExists(x.Left) || usesBoundOrExists(x.Right)
	case ExprIn:
		if usesBoundOrExists(x.Left) {
			return true
		}
		for _, a := range x.List {
			if usesBoundOrExists(a) {
				return true
			}
		}
	}
	return false
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
// variables act as constants of unknown value. Counts come from the graph's
// version-invalidated cardinality cache, so repeated estimation (join
// reordering is O(k²) in pattern count, and interactive sessions re-plan
// the same patterns every click) never rescans an index.
func (ev *evaluator) estimate(tp *TriplePattern, bound map[string]bool) int {
	if tp.Path != nil {
		return 1 << 20 // paths are expensive; schedule late
	}
	ids, ok := ev.constIDs(tp)
	if !ok {
		return 0 // a constant term the graph has never seen: no matches
	}
	base := ev.g.CachedCountIDs(ids[0], ids[1], ids[2])
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

// evalTriple joins the input bindings with a single pattern's matches. The
// work happens in dictionary-ID space (see join.go): a strategy is chosen
// per pattern — per-row index lookups for selective patterns, build/probe
// hash join for unselective ones — and large inputs are partitioned across
// the worker pool with an order-preserving merge. Consecutive patterns are
// normally fused into one run by evalGroup so intermediate rows never
// materialize Binding maps.
func (ev *evaluator) evalTriple(tp *TriplePattern, input []Binding) []Binding {
	if tp.Path != nil {
		return ev.evalPathTriple(tp, input)
	}
	return ev.evalTripleRun([]*TriplePattern{tp}, nil, nil, nil, input)
}

// substNode maps a pattern node to a match term given current bindings,
// returning the variable name still to bind ("" when the position is fixed).
func substNode(n Node, b Binding) (rdf.Term, string) {
	if !n.IsVar() {
		return n.Term, ""
	}
	if t, ok := b[n.Var]; ok {
		return t, ""
	}
	return rdf.Any, n.Var
}

func (ev *evaluator) evalOptional(opt *GroupPattern, input []Binding) []Binding {
	s := ev.enterSpan("optional")
	s.SetAttr("rows_in", len(input))
	po, pot := ev.profEnter("optional", "")
	var out []Binding
	for _, b := range input {
		if ev.cancel.aborted() {
			break
		}
		ext := ev.evalGroup(opt, []Binding{b})
		if len(ext) == 0 {
			out = append(out, b)
			continue
		}
		out = append(out, ext...)
	}
	ev.profExit(po, pot, len(input), len(out))
	s.SetAttr("rows_out", len(out))
	ev.exitSpan(s)
	return out
}

func (ev *evaluator) evalUnion(u *UnionPattern, input []Binding) []Binding {
	s := ev.enterSpan("union")
	s.SetAttr("alternatives", len(u.Alternatives))
	pu, put := ev.profEnter("union", "")
	var out []Binding
	for _, alt := range u.Alternatives {
		out = append(out, ev.evalGroup(alt, input)...)
	}
	ev.profExit(pu, put, len(input), len(out))
	s.SetAttr("rows_out", len(out))
	ev.exitSpan(s)
	return out
}

func (ev *evaluator) evalBind(be *BindElem, input []Binding) []Binding {
	env := exprEnv{ev: ev}
	out := make([]Binding, 0, len(input))
	for _, b := range input {
		nb := b.clone()
		if v, err := env.evalExpr(be.Expr, b); err == nil {
			nb[be.Var] = v
		}
		out = append(out, nb)
	}
	return out
}

func (ev *evaluator) evalValues(ve *ValuesElem, input []Binding) []Binding {
	var out []Binding
	for _, b := range input {
		for _, row := range ve.Rows {
			nb := b.clone()
			ok := true
			for i, v := range ve.Vars {
				t := row[i]
				if t.IsZero() {
					continue // UNDEF
				}
				if cur, bound := nb[v]; bound {
					if cur != t {
						ok = false
						break
					}
					continue
				}
				nb[v] = t
			}
			if ok {
				out = append(out, nb)
			}
		}
	}
	return out
}

func (ev *evaluator) evalSubQuery(q *Query, input []Binding) []Binding {
	s := ev.enterSpan("subquery")
	defer ev.exitSpan(s)
	ps, pst := ev.profEnter("subquery", "")
	res, err := ev.execSelect(q, []Binding{{}})
	if err != nil {
		ev.profExit(ps, pst, len(input), 0)
		return nil
	}
	var out []Binding
	for _, b := range input {
		if ev.cancel.aborted() {
			break
		}
		for _, sub := range res.Rows {
			if !b.compatible(sub) {
				continue
			}
			nb := b.clone()
			for _, v := range res.Vars {
				if t, ok := sub[v]; ok {
					nb[v] = t
				}
			}
			out = append(out, nb)
		}
	}
	ev.profExit(ps, pst, len(input), len(out))
	return out
}

func (ev *evaluator) evalMinus(m *GroupPattern, input []Binding) []Binding {
	s := ev.enterSpan("minus")
	defer ev.exitSpan(s)
	pm, pmt := ev.profEnter("minus", "")
	removed := ev.evalGroup(m, []Binding{{}})
	var out []Binding
	for i, b := range input {
		if i%pollEvery == 0 && ev.cancel.poll() {
			break
		}
		excluded := false
		for _, r := range removed {
			shared := false
			agree := true
			for k, v := range r {
				if w, ok := b[k]; ok {
					shared = true
					if w != v {
						agree = false
						break
					}
				}
			}
			if shared && agree {
				excluded = true
				break
			}
		}
		if !excluded {
			out = append(out, b)
		}
	}
	ev.profExit(pm, pmt, len(input), len(out))
	return out
}

// extend returns the solution rows extended with the SELECT-expression
// values bound to their aliases (the algebra's Extend, SPARQL 1.1
// §18.2.4.4), so ORDER BY can see them before projection. The input is
// returned untouched when the projection has no expressions. Expressions
// evaluate against the already-extended row, so a later select expression
// may reference an earlier alias. An expression error leaves the alias
// unbound, per the spec's error semantics.
func (ev *evaluator) extend(q *Query, rows []Binding) []Binding {
	hasExpr := false
	for _, it := range q.Select.Items {
		if it.Expr != nil {
			hasExpr = true
			break
		}
	}
	if q.Select.Star || !hasExpr {
		return rows
	}
	env := exprEnv{ev: ev}
	out := make([]Binding, len(rows))
	for i, b := range rows {
		nb := b.clone()
		for _, it := range q.Select.Items {
			if it.Expr == nil {
				continue
			}
			if v, err := env.evalExpr(it.Expr, nb); err == nil {
				nb[it.Var] = v
			}
		}
		out[i] = nb
	}
	return out
}

// project builds the final result table from the (extended, ordered)
// solution rows, keeping only the projected variables.
func (ev *evaluator) project(q *Query, rows []Binding) *Results {
	if q.Select.Star {
		varSet := map[string]bool{}
		var vars []string
		for _, b := range rows {
			for v := range b {
				if !varSet[v] && !strings.HasPrefix(v, "_anon") {
					varSet[v] = true
					vars = append(vars, v)
				}
			}
		}
		sort.Strings(vars)
		out := &Results{Vars: vars}
		for _, b := range rows {
			nb := Binding{}
			for _, v := range vars {
				if t, ok := b[v]; ok {
					nb[v] = t
				}
			}
			out.Rows = append(out.Rows, nb)
		}
		return out
	}
	out := &Results{}
	for _, it := range q.Select.Items {
		out.Vars = append(out.Vars, it.Var)
	}
	for _, b := range rows {
		nb := Binding{}
		for _, it := range q.Select.Items {
			if t, ok := b[it.Var]; ok {
				nb[it.Var] = t
			}
		}
		out.Rows = append(out.Rows, nb)
	}
	return out
}

func distinct(res *Results) *Results {
	seen := map[string]bool{}
	out := &Results{Vars: res.Vars}
	for _, b := range res.Rows {
		var sb strings.Builder
		for _, v := range res.Vars {
			if t, ok := b[v]; ok {
				sb.WriteString(t.String())
			}
			sb.WriteByte('\x00')
		}
		key := sb.String()
		if !seen[key] {
			seen[key] = true
			out.Rows = append(out.Rows, b)
		}
	}
	return out
}

// orderBy stably sorts solution rows by the ORDER BY conditions. It runs on
// the pre-projection solution sequence (see execSelect), so conditions may
// reference variables the projection drops.
func (ev *evaluator) orderBy(rows []Binding, conds []OrderCond) {
	cmp := ev.orderComparator(conds)
	sort.SliceStable(rows, func(i, j int) bool { return cmp(rows[i], rows[j]) < 0 })
}

// orderComparator returns the three-way comparator ORDER BY sorts with. The
// comparator is a strict weak order: equivalent-but-unequal terms (distinct
// lexical forms of one value) compare 0 in *both* directions — the earlier
// boolean formulation returned true both ways under DESC, which corrupts
// sort.SliceStable. Unbound/erroring expressions sort lowest ascending, per
// SPARQL 1.1 §15.1.
func (ev *evaluator) orderComparator(conds []OrderCond) func(a, b Binding) int {
	env := exprEnv{ev: ev}
	return func(a, b Binding) int {
		for _, c := range conds {
			va, errA := env.evalExpr(c.Expr, a)
			vb, errB := env.evalExpr(c.Expr, b)
			var cmp int
			switch {
			case errA != nil && errB != nil:
				cmp = 0
			case errA != nil:
				cmp = -1
			case errB != nil:
				cmp = 1
			case va == vb:
				cmp = 0
			case va.Less(vb):
				cmp = -1
			case vb.Less(va):
				cmp = 1
			}
			if cmp == 0 {
				continue
			}
			if c.Desc {
				return -cmp
			}
			return cmp
		}
		return 0
	}
}

// OrderComparator exposes the ORDER BY comparator over solution bindings
// for property-based testing (internal/conformance asserts it is a strict
// weak order: irreflexive, antisymmetric, transitive). It never mutates the
// graph and ignores resource limits.
func OrderComparator(g *rdf.Graph, conds []OrderCond) func(a, b Binding) int {
	ev := newEvaluator(context.Background(), g, Options{})
	return ev.orderComparator(conds)
}
