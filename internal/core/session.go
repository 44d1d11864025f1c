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

// Check reports why the G button cannot group by g: a path facet.CheckPath
// refuses, or a derive function hifun does not know. A spec it passes
// translates, so a click the server's handlers and the snapshot replay
// accept never leaves the session unable to run.
func (g GroupSpec) Check() error {
	if err := facet.CheckPath(g.Path); err != nil {
		return err
	}
	return checkDerive(g.Derive)
}

// Check reports why the Σ button cannot measure m, as GroupSpec.Check does;
// an empty path is the identity measure.
func (m MeasureSpec) Check() error {
	if len(m.Path) > 0 {
		if err := facet.CheckPath(m.Path); err != nil {
			return err
		}
	}
	return checkDerive(m.Derive)
}

func checkDerive(derive string) error {
	if derive != "" && !hifun.IsDerivedFunc(derive) {
		return fmt.Errorf("core: unsupported derived function %q", derive)
	}
	return nil
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
// dataset (§5.3.3) pushes a level, enabling nested analytics.
type level struct {
	model     *facet.Model
	ns        string
	history   []*facet.State // history[len-1] is current
	analytics Analytics
	// answer holds the last Answer Frame computed at this level. It may be
	// shared with other sessions (see SetAnswer) and is never modified.
	answer *hifun.Answer
	// log records the replayable click sequence for snapshots.
	log actionLog
	// markers holds the transition markers of the state ComputeUIState last
	// rendered at this level, so G / Σ clicks — which leave the extension
	// alone (§5.2.2) — do not recount them.
	markers markerSlot
}

func (l *level) state() *facet.State { return l.history[len(l.history)-1] }

// truncateHistory drops the states after the first n, clearing the popped
// tail of the backing array and the marker slot so the states — each
// holding an extension — can be collected.
func (l *level) truncateHistory(n int) {
	clear(l.history[n:])
	l.history = l.history[:n]
	l.markers = markerSlot{}
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
	m := facet.NewModel(g)
	return &Session{levels: []*level{{
		model:   m,
		ns:      ns,
		history: []*facet.State{m.Start()},
	}}}
}

// NewSessionFrom starts a session whose initial extension is an external
// result set (keyword search hand-off, §5.4.1).
func NewSessionFrom(g *rdf.Graph, ns string, results []rdf.Term) *Session {
	m := facet.NewModel(g)
	return &Session{levels: []*level{{
		model:   m,
		ns:      ns,
		history: []*facet.State{m.StartFrom(results)},
	}}}
}

func (s *Session) top() *level { return s.levels[len(s.levels)-1] }

// Model exposes the current level's facet model (read-only use).
func (s *Session) Model() *facet.Model { return s.top().model }

// State returns the current interaction state.
func (s *Session) State() *facet.State { return s.top().state() }

// Analytics returns the current analytic selections.
func (s *Session) Analytics() Analytics { return s.top().analytics }

// Depth returns the nesting depth (1 = original dataset).
func (s *Session) Depth() int { return len(s.levels) }

// NS returns the current level's attribute namespace.
func (s *Session) NS() string { return s.top().ns }

func (s *Session) push(st *facet.State) {
	l := s.top()
	l.history = append(l.history, st)
}

// ClickClass applies a class-based transition (Fig 5.4 a–b).
func (s *Session) ClickClass(c rdf.Term) {
	l := s.top()
	s.push(l.model.ClickClass(l.state(), c))
	l.log.actions = append(l.log.actions, actionJSON{Kind: "class", Class: c.Value})
}

// ClickValue applies a property-value transition, possibly at the end of an
// expanded path (Fig 5.4 c–d, Fig 5.5).
func (s *Session) ClickValue(path facet.Path, v rdf.Term) {
	l := s.top()
	s.push(l.model.ClickValue(l.state(), path, v))
	vj := termToJSON(v)
	l.log.actions = append(l.log.actions, actionJSON{Kind: "value", Path: pathToJSON(path), Value: &vj})
}

// ClickValueSet applies a multi-value transition.
func (s *Session) ClickValueSet(path facet.Path, vs []rdf.Term) {
	l := s.top()
	s.push(l.model.ClickValueSet(l.state(), path, vs))
	a := actionJSON{Kind: "valueset", Path: pathToJSON(path)}
	for _, v := range vs {
		a.Values = append(a.Values, termToJSON(v))
	}
	l.log.actions = append(l.log.actions, a)
}

// ClickRange applies the range-filter button (Example 3 of §5.1).
func (s *Session) ClickRange(path facet.Path, op string, v rdf.Term) {
	l := s.top()
	s.push(l.model.ClickRange(l.state(), path, op, v))
	vj := termToJSON(v)
	l.log.actions = append(l.log.actions, actionJSON{Kind: "range", Path: pathToJSON(path), Op: op, Value: &vj})
}

// SwitchFocus pivots the focus along a property, changing the entity type
// under analysis (e.g. from laptops to their manufacturers). The analytic
// selections are cleared: they referred to the previous entity type.
func (s *Session) SwitchFocus(step facet.PathStep) {
	l := s.top()
	s.push(l.model.SwitchFocus(l.state(), step))
	l.analytics = Analytics{}
	l.log.actions = append(l.log.actions, actionJSON{Kind: "pivot", Path: pathToJSON(facet.Path{step})})
}

// ClickGroupBy toggles the G button on a facet path: clicking an already
// selected path removes it (the "remove some of them" dialog of §5.1).
func (s *Session) ClickGroupBy(spec GroupSpec) {
	l := s.top()
	for i, g := range l.analytics.GroupBy {
		if g.Path.Equal(spec.Path) && g.Derive == spec.Derive {
			l.analytics.GroupBy = append(l.analytics.GroupBy[:i], l.analytics.GroupBy[i+1:]...)
			return
		}
	}
	l.analytics.GroupBy = append(l.analytics.GroupBy, spec)
}

// ClickAggregate sets the measure (Σ button on a facet) and adds the chosen
// operation; clicking an operation already present removes it.
func (s *Session) ClickAggregate(measure MeasureSpec, op hifun.Operation) {
	l := s.top()
	if !samePath(l.analytics.Measure, measure) {
		l.analytics.Measure = measure
		l.analytics.Ops = nil
	}
	for i, o := range l.analytics.Ops {
		if o.Op == op.Op && o.RestrictOp == op.RestrictOp && o.RestrictValue == op.RestrictValue {
			l.analytics.Ops = append(l.analytics.Ops[:i], l.analytics.Ops[i+1:]...)
			return
		}
	}
	l.analytics.Ops = append(l.analytics.Ops, op)
}

func samePath(a, b MeasureSpec) bool {
	return a.Path.Equal(b.Path) && a.Derive == b.Derive
}

// ClearAnalytics resets the G/Σ selections at the current level.
func (s *Session) ClearAnalytics() {
	s.top().analytics = Analytics{}
}

// Back undoes the last faceted transition at the current level.
func (s *Session) Back() error {
	l := s.top()
	if len(l.history) <= 1 {
		return errors.New("core: at initial state")
	}
	l.truncateHistory(len(l.history) - 1)
	if n := len(l.log.actions); n > 0 {
		l.log.actions = l.log.actions[:n-1]
	}
	return nil
}

// Reset returns the current level to its initial state and clears analytics.
func (s *Session) Reset() {
	l := s.top()
	l.truncateHistory(1)
	l.analytics = Analytics{}
	l.answer = nil
	l.log.actions = nil
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
		if err := checkDerive(derive); err != nil {
			return nil, err
		}
		attr = hifun.Derived{Func: strings.ToUpper(derive), Sub: attr}
	}
	return attr, nil
}

// Context returns the HIFUN analysis context of the current state: the
// graph with the intention injected as extra patterns, so the analytic query
// ranges exactly over ctx.Ext (§5.2.2).
func (s *Session) Context() *hifun.Context {
	l := s.top()
	ctx := hifun.NewContext(l.model.G, l.ns)
	ctx.Limits = s.limits
	patterns := l.state().Int.Patterns(hifun.RootVar)
	if strings.TrimSpace(patterns) != "" {
		// Wrap in a subquery so the extension contributes each entity once,
		// regardless of how many bindings satisfy the intention patterns.
		sub := "{ SELECT DISTINCT " + hifun.RootVar + " WHERE {\n" + patterns + "} }"
		ctx.ExtraPatterns = append(ctx.ExtraPatterns, sub)
	}
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
	Key string
	ctx *hifun.Context
}

// PrepareRun builds the current analytic query, the context it ranges over
// and its key; nothing is translated or evaluated.
func (s *Session) PrepareRun() (*Run, error) {
	q, err := s.BuildHIFUNQuery()
	if err != nil {
		return nil, err
	}
	ctx := s.Context()
	return &Run{Query: q, Key: runKey(ctx.ExtraPatterns, s.top().analytics), ctx: ctx}, nil
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

// Exec translates and evaluates the run, once, recording spans under tr and
// the engine's operators in prof (either may be nil). The evaluation
// observes qctx's deadline and cancellation and the session's Limits.
func (r *Run) Exec(qctx context.Context, tr *obs.Trace, prof *sparql.Profile) (*hifun.Answer, error) {
	defer observeSince(runSeconds, time.Now())
	r.ctx.Trace, r.ctx.Profile = tr, prof
	return r.ctx.ExecuteCtx(qctx, r.Query)
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
	tr.SetID(obs.TraceIDFrom(qctx))
	if reqID := obs.RequestIDFrom(qctx); reqID != "" {
		tr.Root().SetAttr("request_id", reqID)
	}
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
	g := l.answer.LoadAsDataset()
	m := facet.NewModel(g)
	start := m.ClickClass(m.Start(), rdf.NewIRI(hifun.AnswerNS+"Tuple"))
	s.levels = append(s.levels, &level{
		model:   m,
		ns:      hifun.AnswerNS,
		history: []*facet.State{start},
	})
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
