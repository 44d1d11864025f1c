// Package core implements the paper's contribution: the interaction model
// that unifies Faceted Search and Analytics over RDF knowledge graphs
// (Chapter 5). A Session extends the base faceted-search state space
// (internal/facet) with the analytic actions of §5.1–§5.2 — the G (group-by)
// and Σ (aggregate) buttons next to each facet, range filters, transform
// (feature-creation) actions — interprets them as a HIFUN query (§5.2.2),
// translates it to SPARQL (Chapter 4) and materializes the Answer Frame.
// Answers can be reloaded as new datasets (§5.3.3), which yields HAVING
// restrictions and arbitrarily nested analytic queries (Example 4 of §5.1).
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/obs"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

// GroupSpec is one grouping condition selected with the G button: a facet
// path, optionally wrapped by a derived function (the transform button used
// to decompose dates into year/month/..., §5.1 "Special cases").
type GroupSpec struct {
	Path facet.Path
	// Derive, when non-empty, is a derived-attribute function (YEAR, MONTH,
	// DAY, ...) applied to the path's value.
	Derive string
}

func (g GroupSpec) String() string {
	if g.Derive != "" {
		return strings.ToLower(g.Derive) + "(" + g.Path.String() + ")"
	}
	return g.Path.String()
}

// MeasureSpec is the measure selected with the Σ button.
type MeasureSpec struct {
	Path   facet.Path
	Derive string
}

func (m MeasureSpec) String() string {
	if len(m.Path) == 0 {
		return "ID"
	}
	if m.Derive != "" {
		return strings.ToLower(m.Derive) + "(" + m.Path.String() + ")"
	}
	return m.Path.String()
}

// Analytics is the analytic part of a state: what the G and Σ buttons have
// accumulated. Per §5.2.2, these actions change the intention but leave the
// extension and the transitions untouched.
type Analytics struct {
	GroupBy []GroupSpec
	Measure MeasureSpec
	Ops     []hifun.Operation
}

// Active reports whether any analytic action has been taken.
func (a Analytics) Active() bool {
	return len(a.GroupBy) > 0 || len(a.Ops) > 0 || len(a.Measure.Path) > 0
}

// level is one dataset level of the session; reloading an answer as a new
// dataset (§5.3.3) pushes a level, enabling nested analytics. Its state is
// its log: the current state is the start state with the logged clicks
// replayed, rebuilt whenever the graph has been written since (§5.3: the
// extension is the intention's answer over the KG).
type level struct {
	model *facet.Model
	ns    string
	// origin is what the level starts from, and never changes: nothing (s0),
	// a keyword seed, or a reloaded answer's tuple class.
	origin facet.Intention
	// start is the level's initial state, origin's at the graph's version.
	start *facet.State
	// log is the level's path from start: the faceted clicks Back has not
	// undone, in order. Snapshots write it out and replay it.
	log []click
	cur *facet.State
	// version is the graph version model's schema, start and cur were built at.
	version   uint64
	analytics Analytics
	// answer holds the last Answer Frame computed at this level. It may be
	// shared with other sessions (see SetAnswer) and is never modified.
	answer *hifun.Answer
	// markers holds the transition markers of cur, once ComputeUIState has
	// counted them, so G / Σ clicks — which leave the extension alone
	// (§5.2.2) — do not recount them.
	markers *markerSlot
}

// newLevel starts a level over g from origin, at the state log leads to.
func newLevel(g *rdf.Graph, ns string, origin facet.Intention, log ...click) *level {
	l := &level{model: &facet.Model{G: g}, ns: ns, origin: origin, log: log}
	l.state() // builds the schema, the start state and the current one
	return l
}

// state returns the current state. When the graph has been written since
// the level was built — a level reads every predicate, since any can become
// a facet (DESIGN.md §10, "One staleness rule") — the schema and
// the start state are rebuilt first, the latter from origin: a seed's
// extension or s0, narrowed to its class. When the current state is unset,
// the log is replayed from the start state.
func (l *level) state() *facet.State {
	if v := l.model.G.Version(); v != l.version || l.model.Schema == nil {
		l.version = v
		l.model.Schema = rdf.SchemaOf(l.model.G)
		l.start = l.model.StartFrom(l.origin.Seed)
		if !l.origin.Class.IsZero() {
			l.start = l.model.ClickClass(l.start, l.origin.Class)
		}
		l.setState(nil)
	}
	if l.cur == nil {
		st := l.start
		for _, c := range l.log {
			st = l.apply(st, c)
		}
		l.setState(st)
	}
	return l.cur
}

// setState makes st current, nil meaning the log's replay, and forgets the
// markers of the state before.
func (l *level) setState(st *facet.State) {
	l.cur, l.markers = st, nil
}

// click is one press of a button of the interaction model. The faceted ones
// (class, value, valueset, range, pivot) are what a level's log records; G
// (group) and Σ (aggregate) change the analytics alone.
type click struct {
	kind   string
	class  rdf.Term
	path   facet.Path // a pivot's one step; a G or Σ path
	op     string     // a range's comparison
	values []rdf.Term // one for value and range
	derive string     // G and Σ
	agg    hifun.Operation
}

// check reports why c cannot be made: every click the session takes, from
// the HTTP API, the REPL or a snapshot, passes here first. A click it passes
// leaves the session able to show and to run what it denotes.
func (c *click) check() error {
	switch c.kind {
	case "class":
		if c.class.Value == "" {
			return errors.New("core: class click without a class")
		}
		return nil
	case "value", "range":
		if len(c.values) != 1 || c.values[0].IsZero() {
			return fmt.Errorf("core: %s click without a value", c.kind)
		}
		if c.kind == "range" && !facet.ValidRangeOp(c.op) {
			return fmt.Errorf("core: unknown range operator %q", c.op)
		}
	case "valueset":
		if len(c.values) == 0 {
			return errors.New("core: value set click without values")
		}
	case "pivot":
		if len(c.path) != 1 {
			return errors.New("core: a pivot takes exactly one step")
		}
	case "group":
	case "aggregate":
		if !hifun.ValidOp(string(c.agg.Op)) {
			return fmt.Errorf("core: unknown aggregate %q", c.agg.Op)
		}
		// A restriction is written verbatim into HAVING.
		if !facet.ValidRangeOp(c.agg.RestrictOp) {
			return fmt.Errorf("core: unknown restriction operator %q", c.agg.RestrictOp)
		}
		if c.agg.RestrictOp != "" && c.agg.RestrictValue.IsZero() {
			return errors.New("core: restriction without a value")
		}
	default:
		return fmt.Errorf("core: unknown click %q", c.kind)
	}
	if c.kind != "aggregate" || len(c.path) > 0 { // a Σ on no path measures ID
		if err := facet.CheckPath(c.path); err != nil {
			return err
		}
	}
	if c.derive != "" && !hifun.IsDerivedFunc(c.derive) {
		return fmt.Errorf("core: unsupported derived function %q", c.derive)
	}
	return nil
}

// apply is the transition a faceted click makes from st.
func (l *level) apply(st *facet.State, c click) *facet.State {
	switch c.kind {
	case "class":
		return l.model.ClickClass(st, c.class)
	case "value":
		return l.model.ClickValue(st, c.path, c.values[0])
	case "valueset":
		return l.model.ClickValueSet(st, c.path, c.values)
	case "range":
		return l.model.ClickRange(st, c.path, c.op, c.values[0])
	default: // pivot
		return l.model.SwitchFocus(st, c.path[0])
	}
}

// Session is an interactive faceted-analytics session over a graph: the
// full state of the GUI in Fig 5.1.
type Session struct {
	levels []*level
	// lastTrace is the span tree of the most recent RunAnalytics, serving
	// the server's record of the run and the CLI's `trace` command.
	lastTrace *obs.Trace
	// lastProfile is the operator-level runtime profile of the most recent
	// RunAnalytics.
	lastProfile *sparql.Profile
	// limits are the resource budgets applied to every analytic query the
	// session runs (see sparql.Limits). Zero values mean engine defaults.
	limits sparql.Limits
	// durability, when non-nil, is the group-commit barrier of the durable
	// store backing the session's graph: mutating operations call it before
	// reporting success, so an acknowledged mutation is on disk.
	durability func() error
}

// SetDurability installs the store sync barrier called after mutating
// operations (e.g. ApplyTransform). Pass nil when the session's graph is
// purely in-memory.
func (s *Session) SetDurability(sync func() error) { s.durability = sync }

// SetLimits installs the resource budgets applied to the session's analytic
// queries. Pass the zero value to restore engine defaults.
func (s *Session) SetLimits(l sparql.Limits) { s.limits = l }

// Limits returns the session's current resource budgets.
func (s *Session) Limits() sparql.Limits { return s.limits }

// Deprecated: ignored; the planner keeps no feedback. Goes with benchmark/trace.go's twin (ROADMAP 1a).
func (s *Session) SetFeedback(*sparql.FeedbackStore) {}

// LastTrace returns the trace of the most recent RunAnalytics call, or nil
// when no analytic query has run yet.
func (s *Session) LastTrace() *obs.Trace { return s.lastTrace }

// LastRun returns what the most recent RunAnalytics left for its caller to
// report: the finished trace and the operator profile (EXPLAIN ANALYZE for
// the analytics pipeline — the CLI's `profile` command). Both are nil
// before the first run.
func (s *Session) LastRun() (*obs.Trace, *sparql.Profile) {
	return s.lastTrace, s.lastProfile
}

// NewSession starts a session over g (which should be materialized) with
// attribute namespace ns. The initial state is s0 (§5.3.2).
func NewSession(g *rdf.Graph, ns string) *Session {
	return &Session{levels: []*level{newLevel(g, ns, facet.Intention{})}}
}

// NewSessionFrom starts a session whose initial extension is an external
// result set (keyword search hand-off, §5.4.1): the results the graph holds
// (facet.Model.StartFrom). When it holds none, they seed nothing, and the
// session starts at s0.
func NewSessionFrom(g *rdf.Graph, ns string, results []rdf.Term) *Session {
	return &Session{levels: []*level{newLevel(g, ns, facet.Intention{Seed: results})}}
}

func (s *Session) top() *level { return s.levels[len(s.levels)-1] }

// Model exposes the current level's facet model (read-only use). Reading
// the state brings its schema up to date with the graph.
func (s *Session) Model() *facet.Model { return s.top().model }

// State returns the current interaction state.
func (s *Session) State() *facet.State { return s.top().state() }

// Analytics returns the current analytic selections.
func (s *Session) Analytics() Analytics { return s.top().analytics }

// Depth returns the nesting depth (1 = original dataset).
func (s *Session) Depth() int { return len(s.levels) }

// NS returns the current level's attribute namespace.
func (s *Session) NS() string { return s.top().ns }

// click checks a faceted click, makes its transition at the current level
// and logs it. A pivot clears the analytic selections when it is made, not
// when the log is replayed.
func (s *Session) click(c click) error {
	if err := c.check(); err != nil {
		return err
	}
	l := s.top()
	c.path, c.values = slices.Clone(c.path), slices.Clone(c.values)
	l.setState(l.apply(l.state(), c))
	l.log = append(l.log, c)
	if c.kind == "pivot" {
		l.analytics = Analytics{}
	}
	return nil
}

// ClickClass applies a class-based transition (Fig 5.4 a–b).
func (s *Session) ClickClass(c rdf.Term) error {
	return s.click(click{kind: "class", class: c})
}

// ClickValue applies a property-value transition, possibly at the end of an
// expanded path (Fig 5.4 c–d, Fig 5.5).
func (s *Session) ClickValue(path facet.Path, v rdf.Term) error {
	return s.click(click{kind: "value", path: path, values: []rdf.Term{v}})
}

// ClickValueSet applies a multi-value transition.
func (s *Session) ClickValueSet(path facet.Path, vs []rdf.Term) error {
	return s.click(click{kind: "valueset", path: path, values: vs})
}

// ClickRange applies the range-filter button (Example 3 of §5.1).
func (s *Session) ClickRange(path facet.Path, op string, v rdf.Term) error {
	return s.click(click{kind: "range", path: path, op: op, values: []rdf.Term{v}})
}

// SwitchFocus pivots the focus along a property, changing the entity type
// under analysis (e.g. from laptops to their manufacturers). The analytic
// selections are cleared: they referred to the previous entity type.
func (s *Session) SwitchFocus(step facet.PathStep) error {
	return s.click(click{kind: "pivot", path: facet.Path{step}})
}

// ClickGroupBy toggles the G button on a facet path: clicking an already
// selected path removes it (the "remove some of them" dialog of §5.1).
func (s *Session) ClickGroupBy(spec GroupSpec) error {
	if err := (&click{kind: "group", path: spec.Path, derive: spec.Derive}).check(); err != nil {
		return err
	}
	l := s.top()
	for i, g := range l.analytics.GroupBy {
		if g.Path.Equal(spec.Path) && g.Derive == spec.Derive {
			l.analytics.GroupBy = append(l.analytics.GroupBy[:i], l.analytics.GroupBy[i+1:]...)
			return nil
		}
	}
	l.analytics.GroupBy = append(l.analytics.GroupBy, spec)
	return nil
}

// ClickAggregate sets the measure (Σ button on a facet) and adds the chosen
// operation; clicking an operation already present removes it.
func (s *Session) ClickAggregate(measure MeasureSpec, op hifun.Operation) error {
	if err := (&click{kind: "aggregate", path: measure.Path, derive: measure.Derive, agg: op}).check(); err != nil {
		return err
	}
	l := s.top()
	if !samePath(l.analytics.Measure, measure) {
		l.analytics.Measure = measure
		l.analytics.Ops = nil
	}
	for i, o := range l.analytics.Ops {
		if o.Op == op.Op && o.RestrictOp == op.RestrictOp && o.RestrictValue == op.RestrictValue {
			l.analytics.Ops = append(l.analytics.Ops[:i], l.analytics.Ops[i+1:]...)
			return nil
		}
	}
	l.analytics.Ops = append(l.analytics.Ops, op)
	return nil
}

func samePath(a, b MeasureSpec) bool {
	return a.Path.Equal(b.Path) && a.Derive == b.Derive
}

// ClearAnalytics resets the G/Σ selections at the current level.
func (s *Session) ClearAnalytics() {
	s.top().analytics = Analytics{}
}

// Back undoes the last faceted transition at the current level: the click
// leaves the log, which is replayed when the state is next read. The G/Σ
// selections stay as they are.
func (s *Session) Back() error {
	l := s.top()
	if len(l.log) == 0 {
		return errors.New("core: at initial state")
	}
	l.log = l.log[:len(l.log)-1]
	l.setState(nil)
	return nil
}

// Reset returns the current level to its initial state and clears analytics.
func (s *Session) Reset() {
	l := s.top()
	l.log = nil
	l.setState(nil)
	l.analytics = Analytics{}
	l.answer = nil
}

// BuildHIFUNQuery assembles the HIFUN query the current analytic state
// denotes (§5.2.2): the grouping expression is the pairing of the G-selected
// paths (each a composition), the measure is the Σ-selected path (or ID),
// and the current extension becomes the context (via the intention).
func (s *Session) BuildHIFUNQuery() (*hifun.Query, error) {
	l := s.top()
	a := l.analytics
	if len(a.Ops) == 0 {
		return nil, errors.New("core: no aggregate operation selected (Σ button)")
	}
	q := &hifun.Query{}
	// Grouping: pairing of compositions.
	var groupAttrs []hifun.Attr
	for _, g := range a.GroupBy {
		attr, err := pathToAttr(g.Path, g.Derive)
		if err != nil {
			return nil, err
		}
		groupAttrs = append(groupAttrs, attr)
	}
	switch len(groupAttrs) {
	case 0:
		q.Grouping = nil // ε: aggregate over the whole extension (Example 1)
	case 1:
		q.Grouping = groupAttrs[0]
	default:
		q.Grouping = hifun.Pair{Items: groupAttrs}
	}
	// Measure.
	if len(a.Measure.Path) == 0 {
		q.Measuring = hifun.Ident{}
	} else {
		attr, err := pathToAttr(a.Measure.Path, a.Measure.Derive)
		if err != nil {
			return nil, err
		}
		q.Measuring = attr
	}
	q.Ops = append(q.Ops, a.Ops...)
	return q, nil
}

// pathToAttr converts a facet path p1/.../pk into the HIFUN composition
// pk ∘ ... ∘ p1, optionally wrapped in a derived function.
func pathToAttr(p facet.Path, derive string) (hifun.Attr, error) {
	if len(p) == 0 {
		return nil, errors.New("core: empty facet path")
	}
	var attr hifun.Attr
	for i, step := range p {
		prop := hifun.Prop{Name: step.P.Value, Inverse: step.Inverse}
		if i == 0 {
			attr = prop
		} else {
			attr = hifun.Comp{Outer: prop, Inner: attr}
		}
	}
	if derive != "" {
		attr = hifun.Derived{Func: strings.ToUpper(derive), Sub: attr}
	}
	return attr, nil
}

// Context returns the HIFUN analysis context of the current state: the
// graph with the intention injected as one sub-select, SELECT DISTINCT ?x1,
// which denotes the state's extension (§5.2.2). The extension is what a run
// ranges over, and the sub-select only its rendering: the text a run's key,
// read set and Answer Frame show. An intention that renders no patterns —
// the start state's — is rendered by the start rule (facet.StartPatterns).
func (s *Session) Context() *hifun.Context {
	l := s.top()
	ctx := hifun.NewContext(l.model.G, l.ns)
	ctx.Limits = s.limits
	patterns := l.state().Int.Patterns(hifun.RootVar)
	if strings.TrimSpace(patterns) == "" {
		patterns = facet.StartPatterns(hifun.RootVar)
	}
	ctx.ExtraPatterns = []string{"{ SELECT DISTINCT " + hifun.RootVar + " WHERE {\n" + patterns + "} }"}
	return ctx
}

// Run is the session's current analytic query, ready to evaluate. Exec
// touches no session, so the evaluation can run wherever the caller likes —
// behind a server's shared answer cache, say — and every session that asked
// for it adopts the frame with SetAnswer.
type Run struct {
	// Query is the HIFUN query the analytic state denotes.
	Query *hifun.Query
	// Key names the answer over one graph version and namespace: the
	// intention's graph patterns, which the translation injects, and the
	// analytic selections with full IRIs and typed values. The breadcrumb and
	// the HIFUN text print IRIs as local names and literals without their
	// datatype, so two different questions can print alike; their keys
	// cannot. The translation is a pure function of what the key holds, so
	// equal keys denote equal Answer Frames.
	Key  string
	ctx  *hifun.Context
	prep *hifun.Prepared // set by Prepare
	// ext is the state's extension, computed at graph version version by the
	// level's origin and log, which the run keeps to compute it again.
	ext     *facet.TermSet
	version uint64
	origin  facet.Intention
	log     []click
}

// PrepareRun builds the current analytic query, the context it ranges over
// and its key; nothing is translated or evaluated.
func (s *Session) PrepareRun() (*Run, error) {
	q, err := s.BuildHIFUNQuery()
	if err != nil {
		return nil, err
	}
	ctx := s.Context()
	l := s.top() // Context brought its state up to date
	return &Run{Query: q, Key: runKey(ctx.ExtraPatterns, l.analytics), ctx: ctx,
		ext: l.cur.Ext, version: l.version, origin: l.origin, log: slices.Clone(l.log)}, nil
}

// runKey renders a Run.Key from the context's injected patterns and the
// analytic selections.
func runKey(patterns []string, a Analytics) string {
	var key strings.Builder
	key.WriteString(strings.Join(patterns, "\n"))
	path := func(tag string, p facet.Path, derive string) {
		key.WriteString("\x00" + tag)
		for _, step := range p {
			if step.Inverse {
				key.WriteByte('^')
			}
			key.WriteString(step.P.String())
		}
		key.WriteString(derive)
	}
	for _, g := range a.GroupBy {
		path("G", g.Path, g.Derive)
	}
	path("M", a.Measure.Path, a.Measure.Derive)
	for _, op := range a.Ops {
		fmt.Fprintf(&key, "\x00%s %t %s %s", op.Op, op.Distinct, op.RestrictOp, op.RestrictValue)
	}
	return key.String()
}

// Prepare translates the run to SPARQL and parses it, once: the query Exec
// then evaluates. A caller that needs the query before the evaluation — its
// shape, what it reads — takes it from here and parses nothing again.
func (r *Run) Prepare() (*sparql.Query, error) {
	if r.prep == nil {
		p, err := r.ctx.Prepare(r.Query)
		if err != nil {
			return nil, err
		}
		r.prep = p
	}
	return r.prep.Parsed, nil
}

// Exec evaluates the run, once, recording spans under tr and the engine's
// operators in prof (either may be nil); it translates the run first unless
// Prepare did. The evaluation observes qctx's deadline and cancellation and
// the session's Limits. It evaluates the prepared query over the state's
// extension (overExtension).
func (r *Run) Exec(qctx context.Context, tr *obs.Trace, prof *sparql.Profile) (*hifun.Answer, error) {
	defer observeSince(runSeconds, time.Now())
	if _, err := r.Prepare(); err != nil {
		return nil, err
	}
	ctx := *r.ctx
	ctx.Trace, ctx.Profile = tr, prof
	over, ext := r.overExtension()
	ctx.Extension = ext
	return ctx.ExecutePrepared(qctx, over)
}

// overExtension returns the prepared query with the injected sub-select left
// out — a shallow copy of its WHERE, nothing translated or parsed again —
// and the state's extension as the relation ?x1 starts from, in ascending ID
// order. When a write to a predicate the sub-select reads has landed since
// the extension was computed, the extension is computed again at the
// graph's version, as the level computes it: the start state of its origin,
// then its log replayed.
func (r *Run) overExtension() (*hifun.Prepared, *sparql.Relation) {
	elems := r.prep.Parsed.Where.Elems
	i := slices.IndexFunc(elems, func(e sparql.PatternElem) bool { return e.SubQuery != nil })
	ext := r.ext
	if r.ctx.Graph.ReadVersion(sparql.ReadSet(elems[i].SubQuery)) > r.version {
		ext = newLevel(r.ctx.Graph, r.ctx.NS, r.origin, r.log...).cur.Ext
	}
	q := *r.prep.Parsed
	q.Where = &sparql.GroupPattern{Elems: slices.Delete(slices.Clone(elems), i, i+1)}
	over := *r.prep
	over.Parsed = &q
	return &over, &sparql.Relation{Var: strings.TrimPrefix(hifun.RootVar, "?"), IDs: ext.IDs()}
}

// SetAnswer adopts a frame computed for the current level's run — by this
// session's own Exec or by a shared execution another session started —
// as the level's answer, the one charts, CSV export and reloading read.
func (s *Session) SetAnswer(a *hifun.Answer) { s.top().answer = a }

// RunAnalytics builds, translates and executes the current analytic query,
// storing and returning the Answer Frame.
func (s *Session) RunAnalytics() (*hifun.Answer, error) {
	return s.RunAnalyticsCtx(context.Background())
}

// RunAnalyticsCtx is RunAnalytics honoring ctx (see Run.Exec). Its trace and
// operator profile are left for LastRun.
func (s *Session) RunAnalyticsCtx(qctx context.Context) (*hifun.Answer, error) {
	tr := obs.NewTrace("run_analytics")
	defer tr.Finish()
	// Adopt the IDs the HTTP layer minted, so the retained trace matches
	// the X-Trace-ID / X-Request-ID the client saw.
	ids := obs.RequestIDsFrom(qctx)
	tr.SetID(ids.Trace)
	tr.SetRequestID(ids.Request)
	prof := sparql.NewProfile("run_analytics")
	s.lastTrace, s.lastProfile = tr, prof

	bq := tr.Root().StartChild("build_query")
	run, err := s.PrepareRun()
	bq.Finish()
	if err != nil {
		return nil, err
	}
	bq.SetAttr("hifun", run.Query.String())
	ans, err := run.Exec(qctx, tr, prof)
	if err != nil {
		return nil, err
	}
	s.SetAnswer(ans)
	return ans, nil
}

// Answer returns the last computed Answer Frame at the current level.
func (s *Session) Answer() *hifun.Answer { return s.top().answer }

// LoadAnswerAsDataset implements the "Explore with FS" button (§5.3.3 /
// Fig 5.2): the current answer becomes a new dataset and the session
// descends into it; subsequent restrictions act as HAVING clauses over the
// original data. The new level starts at the tuple class.
func (s *Session) LoadAnswerAsDataset() error {
	l := s.top()
	if l.answer == nil {
		return errors.New("core: no answer to load (run an analytic query first)")
	}
	defer observeSince(reloadSeconds, time.Now())
	start := facet.Intention{Class: rdf.NewIRI(hifun.AnswerNS + "Tuple")}
	s.levels = append(s.levels, newLevel(l.answer.LoadAsDataset(), hifun.AnswerNS, start))
	return nil
}

// CloseLevel pops the top dataset level, returning to the outer dataset.
func (s *Session) CloseLevel() error {
	if len(s.levels) <= 1 {
		return errors.New("core: at the base dataset")
	}
	s.levels = s.levels[:len(s.levels)-1]
	return nil
}

// ApplyTransform materializes a feature-creation operator on the current
// extension (the transform button of §5.1 "Special cases"), making
// non-functional properties usable as HIFUN attributes.
func (s *Session) ApplyTransform(spec hifun.FeatureSpec) (int, error) {
	l := s.top()
	n, err := hifun.ApplyFeature(l.model.G, l.state().Ext.Items(), spec)
	if err == nil && s.durability != nil {
		// Group commit: the materialized triples were journaled as they
		// were added; make them durable before acknowledging the count.
		if serr := s.durability(); serr != nil {
			return n, fmt.Errorf("core: transform applied but not durable: %w", serr)
		}
	}
	return n, err
}
