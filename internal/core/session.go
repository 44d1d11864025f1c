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
	"rdfanalytics/internal/resilience"
	"rdfanalytics/internal/sparql"
)

// levelCacheBytes bounds each level's answer memoization: enough for
// hundreds of typical Answer Frames, small enough that MaxSessions
// concurrent sessions stay within a predictable memory envelope. A
// variable (not const) so tests can shrink it to force evictions.
var levelCacheBytes int64 = 8 << 20 // 8 MiB

// dropStaleAnswers empties the answer memo and the cubes when the level's
// graph mutated since they were filled.
func (l *level) dropStaleAnswers() {
	if v := l.model.G.Version(); v != l.answersVersion {
		l.cache, l.cubes, l.answersVersion = nil, nil, v
	}
}

// ensureCache lazily builds the level's bounded answer cache.
func (l *level) ensureCache() {
	if l.cache == nil {
		l.cache = resilience.NewSizedLRU[*hifun.Answer](levelCacheBytes,
			func(string, int64) { answerEvicted.Inc() })
	}
}

// answerBytes estimates an Answer Frame's resident size for the cache's
// byte accounting: string payloads plus per-term/per-row overhead.
func answerBytes(a *hifun.Answer) int64 {
	n := int64(len(a.SPARQL)) + 128
	for _, c := range a.GroupCols {
		n += int64(len(c)) + 16
	}
	for _, c := range a.MeasureCols {
		n += int64(len(c)) + 16
	}
	for _, row := range a.Rows {
		n += 24
		for _, t := range row {
			n += int64(len(t.Value)+len(t.Datatype)+len(t.Lang)) + 48
		}
	}
	return n
}

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
// dataset (§5.3.3) pushes a level, enabling nested analytics.
type level struct {
	model     *facet.Model
	ns        string
	history   []*facet.State // history[len-1] is current
	analytics Analytics
	// answer holds the last Answer Frame computed at this level.
	answer *hifun.Answer
	// cache memoizes answers by (intention, HIFUN query): repeated runs of
	// the same analytic state (e.g. switching chart types in the GUI) skip
	// re-evaluation. Bounded by byte-size accounting (levelCacheBytes) with
	// LRU eviction — a long-lived session cannot grow it without limit. A
	// nil cache is valid and empty (see resilience.SizedLRU).
	cache *resilience.SizedLRU[*hifun.Answer]
	// answersVersion is the graph version cache and cubes were filled at;
	// dropStaleAnswers empties both when the graph has moved since, whoever
	// moved it.
	answersVersion uint64
	// log records the replayable click sequence for snapshots.
	log actionLog
	// cubes retains recent decomposable answers for roll-up reuse.
	cubes []cubeEntry
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
	// GET /api/trace and the CLI's `trace` command.
	lastTrace *obs.Trace
	// lastProfile is the operator-level runtime profile of the most recent
	// RunAnalytics (empty below the root for cache and cube-rollup hits,
	// which never touch the engine).
	lastProfile *sparql.Profile
	// limits are the resource budgets applied to every analytic query the
	// session runs (see sparql.Limits). Zero values mean engine defaults.
	limits sparql.Limits
	// feedback, when non-nil, is the planner feedback store shared with the
	// owner of the session (e.g. the HTTP server): every analytic query
	// plans with — and reports actuals back to — the same store, so
	// repeated analytic shapes converge on true cardinalities.
	feedback *sparql.FeedbackStore
	// durability, when non-nil, is the group-commit barrier of the durable
	// store backing the session's graph: mutating operations call it before
	// reporting success, so an acknowledged mutation is on disk.
	durability func() error
	// traceSink, when non-nil, receives every completed RunAnalytics trace
	// so the owner can retain it beyond last-trace-only (the server offers
	// these to its tail-sampling trace store).
	traceSink func(TraceEvent)
}

// TraceEvent describes one completed analytic run, delivered to the
// session's trace sink after the trace is finished. The sink runs on the
// calling goroutine and must not call back into the session.
type TraceEvent struct {
	Trace   *obs.Trace
	Profile *sparql.Profile
	// HIFUN is the analytic query text ("" when query building failed).
	HIFUN string
	// SPARQL is the generated SPARQL ("" for cache/cube hits and errors).
	SPARQL string
	Rows   int
	// Source is how the answer was produced: "cache", "cube_rollup",
	// "query", or "" when the run failed before an answer source was chosen.
	Source    string
	Duration  time.Duration
	Err       error
	RequestID string
}

// SetTraceSink installs the completed-trace hook (nil disables it).
func (s *Session) SetTraceSink(sink func(TraceEvent)) { s.traceSink = sink }

// SetDurability installs the store sync barrier called after mutating
// operations (e.g. ApplyTransform). Pass nil when the session's graph is
// purely in-memory.
func (s *Session) SetDurability(sync func() error) { s.durability = sync }

// SetLimits installs the resource budgets applied to the session's analytic
// queries. Pass the zero value to restore engine defaults.
func (s *Session) SetLimits(l sparql.Limits) { s.limits = l }

// Limits returns the session's current resource budgets.
func (s *Session) Limits() sparql.Limits { return s.limits }

// SetFeedback installs the planner feedback store used by the session's
// analytic queries. Pass nil to disable feedback-driven planning.
func (s *Session) SetFeedback(fb *sparql.FeedbackStore) { s.feedback = fb }

// LastTrace returns the trace of the most recent RunAnalytics call, or nil
// when no analytic query has run yet.
func (s *Session) LastTrace() *obs.Trace { return s.lastTrace }

// LastProfile returns the operator profile of the most recent RunAnalytics
// (or ProfileAnalytics) call, or nil when no analytic query has run yet.
func (s *Session) LastProfile() *sparql.Profile { return s.lastProfile }

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
		if !hifun.IsDerivedFunc(derive) {
			return nil, fmt.Errorf("core: unsupported derived function %q", derive)
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
	ctx.Feedback = s.feedback
	patterns := l.state().Int.Patterns(hifun.RootVar)
	if strings.TrimSpace(patterns) != "" {
		// Wrap in a subquery so the extension contributes each entity once,
		// regardless of how many bindings satisfy the intention patterns.
		sub := "{ SELECT DISTINCT " + hifun.RootVar + " WHERE {\n" + patterns + "} }"
		ctx.ExtraPatterns = append(ctx.ExtraPatterns, sub)
	}
	return ctx
}

// RunAnalytics builds, translates and executes the current analytic query,
// storing and returning the Answer Frame. Identical (state, query) pairs
// are served from a per-level cache until the graph mutates.
func (s *Session) RunAnalytics() (*hifun.Answer, error) {
	return s.RunAnalyticsCtx(context.Background())
}

// RunAnalyticsCtx is RunAnalytics honoring ctx: the HIFUN translation and
// the generated SPARQL evaluation observe ctx's deadline/cancellation and
// the session's Limits. Cache and cube-rollup hits are unaffected (they
// never touch the engine).
func (s *Session) RunAnalyticsCtx(qctx context.Context) (ans *hifun.Answer, err error) {
	start := time.Now()
	defer func() { runSeconds.Observe(time.Since(start).Seconds()) }()
	tr := obs.NewTrace("run_analytics")
	// Adopt the IDs the HTTP layer minted, so the retained trace matches
	// the X-Trace-ID / X-Request-ID the client saw.
	tr.SetID(obs.TraceIDFrom(qctx))
	reqID := obs.RequestIDFrom(qctx)
	if reqID != "" {
		tr.Root().SetAttr("request_id", reqID)
	}
	s.lastTrace = tr
	prof := sparql.NewProfile("run_analytics")
	prof.SetTraceID(tr.ID())
	s.lastProfile = prof
	var q *hifun.Query
	source := ""
	defer func() {
		tr.Finish()
		if s.traceSink == nil {
			return
		}
		ev := TraceEvent{
			Trace:     tr,
			Profile:   prof,
			Source:    source,
			Duration:  time.Since(start),
			Err:       err,
			RequestID: reqID,
		}
		if q != nil {
			ev.HIFUN = q.String()
		}
		if ans != nil {
			ev.SPARQL = ans.SPARQL
			ev.Rows = len(ans.Rows)
		}
		s.traceSink(ev)
	}()

	bq := tr.Root().StartChild("build_query")
	q, err = s.BuildHIFUNQuery()
	bq.Finish()
	if err != nil {
		return nil, err
	}
	bq.SetAttr("hifun", q.String())
	l := s.top()
	l.dropStaleAnswers()
	intentionKey := l.state().Int.String()
	key := intentionKey + "\x00" + q.String()
	if cached, ok := l.cache.Get(key); ok {
		answerHits.Inc()
		source = "cache"
		tr.Root().SetAttr("answer_source", source)
		prof.Record(time.Since(start), 1, len(cached.Rows))
		l.answer = cached
		return cached, nil
	}
	// Materialized-cube reuse: a coarser grouping of a cached cube rolls up
	// in memory instead of re-querying (see cube.go).
	if rolled := l.tryCubeReuse(intentionKey, l.analytics); rolled != nil {
		answerCubes.Inc()
		source = "cube_rollup"
		tr.Root().SetAttr("answer_source", source)
		prof.Record(time.Since(start), 1, len(rolled.Rows))
		l.ensureCache()
		l.cache.Put(key, rolled, answerBytes(rolled))
		l.answer = rolled
		return rolled, nil
	}
	answerMisses.Inc()
	source = "query"
	tr.Root().SetAttr("answer_source", source)
	ctx := s.Context()
	ctx.Trace = tr
	ctx.Profile = prof
	ans, err = ctx.ExecuteCtx(qctx, q)
	if err != nil {
		return nil, err
	}
	prof.Record(time.Since(start), 1, len(ans.Rows))
	l.ensureCache()
	l.cache.Put(key, ans, answerBytes(ans))
	l.rememberCube(intentionKey, l.analytics, ans)
	l.answer = ans
	return ans, nil
}

// ProfileAnalytics executes the current analytic query bypassing the answer
// cache and the cube roll-up, so the returned operator profile reflects a
// real end-to-end evaluation (EXPLAIN ANALYZE for the analytics pipeline —
// the CLI's `profile` command). The computed answer is not cached: repeated
// profiling keeps measuring the engine, and a later RunAnalytics still
// benefits from its own memoization.
func (s *Session) ProfileAnalytics(qctx context.Context) (*hifun.Answer, *sparql.Profile, error) {
	q, err := s.BuildHIFUNQuery()
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	prof := sparql.NewProfile("run_analytics")
	ctx := s.Context()
	ctx.Profile = prof
	ans, err := ctx.ExecuteCtx(qctx, q)
	if err != nil {
		return nil, nil, err
	}
	prof.Record(time.Since(start), 1, len(ans.Rows))
	s.lastProfile = prof
	s.top().answer = ans
	return ans, prof, nil
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
