package hifun

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"rdfanalytics/internal/obs"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

// Metric handles for the HIFUN layer, resolved once at package init.
var (
	translateSeconds = obs.Default.Histogram("rdfa_hifun_translate_seconds", nil)
	executeSeconds   = obs.Default.Histogram("rdfa_hifun_execute_seconds", nil)
)

// Context is a HIFUN analysis context over an RDF dataset (§2.5): a set of
// data items (the extension of a class, or the whole graph) together with
// the attributes applicable to them.
type Context struct {
	Graph *rdf.Graph
	// NS resolves bare attribute names to IRIs.
	NS string
	// Root, when set, limits the data items to the instances of this class.
	Root rdf.Term
	// ExtraPatterns inject additional graph patterns rooted at ?x1 (used by
	// the faceted layer to restrict the context to the current extension).
	ExtraPatterns []string
	// Trace, when non-nil, records per-phase spans of Execute (translate,
	// parse, exec, build_answer) under its root. Tracing never changes the
	// answer, only records how it was computed.
	Trace *obs.Trace
	// Profile, when non-nil, receives the operator-level runtime profile of
	// Execute: the translate and build_answer stages as flat nodes, and the
	// full SPARQL operator tree under an "exec" node (EXPLAIN ANALYZE for
	// the analytics pipeline). Like Trace, it never changes the answer.
	Profile *sparql.Profile
	// Limits are the resource budgets applied to the generated SPARQL
	// evaluation (intermediate rows, path depth/visited). Zero values use
	// the engine defaults.
	Limits sparql.Limits
	// Feedback, when non-nil, closes the planner's q-error loop for
	// analytic queries: Execute fingerprints the generated SPARQL, plans
	// with the store's observed cardinalities when the same shape ran
	// before, and (when Profile is set) feeds actuals back after success.
	Feedback *sparql.FeedbackStore
}

// NewContext builds an analysis context over g with attribute namespace ns.
func NewContext(g *rdf.Graph, ns string) *Context {
	return &Context{Graph: g, NS: ns}
}

// WithRoot returns a copy of the context rooted at class c.
func (c *Context) WithRoot(class rdf.Term) *Context {
	cc := *c
	cc.Root = class
	return &cc
}

// Attributes returns the properties applicable to the context's data items,
// sorted: the candidate direct attributes of the analysis (§4.1.2).
func (c *Context) Attributes() []rdf.Term {
	seen := map[rdf.Term]bool{}
	var out []rdf.Term
	consider := func(p rdf.Term) {
		if !seen[p] && p.Value != rdf.RDFType &&
			!strings.HasPrefix(p.Value, rdf.RDFSNS) && !strings.HasPrefix(p.Value, rdf.OWLNS) {
			seen[p] = true
			out = append(out, p)
		}
	}
	if c.Root.IsZero() {
		for _, p := range c.Graph.Predicates() {
			consider(p)
		}
	} else {
		for _, item := range rdf.InstancesOf(c.Graph, c.Root) {
			c.Graph.Match(item, rdf.Any, rdf.Any, func(t rdf.Triple) bool {
				consider(t.P)
				return true
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Translator returns the SPARQL translator configured for this context.
func (c *Context) Translator() *Translator {
	return &Translator{NS: c.NS, RootClass: c.Root, ExtraPatterns: c.ExtraPatterns}
}

// Answer is the result of a HIFUN query: a function from grouping values to
// aggregate values, materialized as a table (§2.5's ansQ).
type Answer struct {
	// GroupCols are the grouping columns (empty for ε-grouping).
	GroupCols []string
	// MeasureCols are the aggregate columns, one per operation.
	MeasureCols []string
	// Rows holds the table in column order GroupCols ++ MeasureCols.
	Rows [][]rdf.Term
	// SPARQL is the executed query text (for provenance and the UI).
	SPARQL string
}

// Columns returns all column names in order.
func (a *Answer) Columns() []string {
	return append(append([]string{}, a.GroupCols...), a.MeasureCols...)
}

// String renders the answer as an aligned table.
func (a *Answer) String() string {
	cols := a.Columns()
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	cells := make([][]string, len(a.Rows))
	for i, row := range a.Rows {
		cells[i] = make([]string, len(cols))
		for j, t := range row {
			s := ""
			if !t.IsZero() {
				s = t.LocalName()
			}
			cells[i][j] = s
			if len(s) > widths[j] {
				widths[j] = len(s)
			}
		}
	}
	var sb strings.Builder
	for j, c := range cols {
		fmt.Fprintf(&sb, "%-*s ", widths[j], c)
	}
	sb.WriteByte('\n')
	for _, row := range cells {
		for j, s := range row {
			fmt.Fprintf(&sb, "%-*s ", widths[j], s)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Project returns a copy of the answer keeping only the named columns, in
// the given order — the Answer Frame's add/remove-columns affordance
// (§5.1, "Extra Columns"). Unknown names are ignored; duplicate group rows
// that arise from dropping a grouping column are kept (the projection does
// not re-aggregate — use the session's roll-up for that).
func (a *Answer) Project(cols []string) *Answer {
	out := &Answer{SPARQL: a.SPARQL}
	all := a.Columns()
	idx := make([]int, 0, len(cols))
	for _, c := range cols {
		for i, name := range all {
			if name == c {
				idx = append(idx, i)
				if i < len(a.GroupCols) {
					out.GroupCols = append(out.GroupCols, name)
				} else {
					out.MeasureCols = append(out.MeasureCols, name)
				}
				break
			}
		}
	}
	for _, row := range a.Rows {
		nr := make([]rdf.Term, len(idx))
		for j, i := range idx {
			nr[j] = row[i]
		}
		out.Rows = append(out.Rows, nr)
	}
	return out
}

// Execute translates q against the context and evaluates it, returning the
// materialized answer. Group rows are sorted for determinism.
func (c *Context) Execute(q *Query) (*Answer, error) {
	return c.ExecuteCtx(context.Background(), q)
}

// ExecuteCtx is Execute honoring ctx: the underlying SPARQL evaluation is
// cancelled when ctx's deadline expires or it is cancelled, and the
// context's Limits govern intermediate result sizes.
func (c *Context) ExecuteCtx(ctx context.Context, q *Query) (*Answer, error) {
	start := time.Now()
	defer func() { executeSeconds.Observe(time.Since(start).Seconds()) }()
	root := c.Trace.Root()
	c.Profile.SetTraceID(c.Trace.ID())

	ts := root.StartChild("translate")
	src, err := c.Translator().Translate(q)
	translateSeconds.Observe(time.Since(start).Seconds())
	c.Profile.Sub("translate", "").Record(time.Since(start), 0, 0)
	if ts != nil {
		ts.SetAttr("hifun", q.String())
		ts.Finish()
	}
	if err != nil {
		return nil, err
	}
	parsed, err := sparql.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("hifun: generated SPARQL failed to parse: %w\n%s", err, src)
	}
	es := root.StartChild("exec")
	execOpts := sparql.Options{
		Trace:   obs.SubTrace(es),
		Limits:  c.Limits,
		Profile: c.Profile.Sub("exec", ""),
	}
	if c.Feedback != nil {
		execOpts.Feedback = c.Feedback
		execOpts.FingerprintID = sparql.FingerprintID(sparql.Fingerprint(parsed))
		if execOpts.Profile == nil {
			// Feedback needs actual cardinalities; attach a throwaway profile
			// when the caller did not request one.
			execOpts.Profile = sparql.NewProfile("exec")
		}
	}
	res, err := sparql.ExecSelectCtx(ctx, c.Graph, parsed, execOpts)
	es.Finish()
	if err != nil {
		return nil, err
	}
	bs := root.StartChild("build_answer")
	bstart := time.Now()
	res.Sort()
	ans := &Answer{SPARQL: src}
	nGroups := len(res.Vars) - len(q.Ops)
	if nGroups < 0 {
		nGroups = 0
	}
	ans.GroupCols = append(ans.GroupCols, res.Vars[:nGroups]...)
	ans.MeasureCols = append(ans.MeasureCols, res.Vars[nGroups:]...)
	ans.Rows = res.Rows
	c.Profile.Sub("build_answer", "").Record(time.Since(bstart), len(res.Rows), len(ans.Rows))
	if bs != nil {
		bs.SetAttr("rows", len(ans.Rows))
		bs.Finish()
	}
	return ans, nil
}

// ExecuteText parses and executes a textual HIFUN query.
func (c *Context) ExecuteText(src string) (*Answer, error) {
	return c.ExecuteTextCtx(context.Background(), src)
}

// ExecuteTextCtx parses and executes a textual HIFUN query honoring ctx.
func (c *Context) ExecuteTextCtx(ctx context.Context, src string) (*Answer, error) {
	q, err := Parse(src, c.NS)
	if err != nil {
		return nil, err
	}
	return c.ExecuteCtx(ctx, q)
}

// AnswerNS is the namespace of datasets derived from answers (§5.3.3).
const AnswerNS = "http://example.org/answer#"

// LoadAsDataset converts the answer into a new RDF dataset per §5.3.3: each
// tuple t_i gets a fresh identifier and k triples (t_i, A_j, t_ij). The
// returned graph also types each tuple as answer:Tuple, so the faceted layer
// can root a new analysis context at the result set — this is how HAVING
// restrictions and arbitrarily nested analytic queries arise in the model.
func (a *Answer) LoadAsDataset() *rdf.Graph {
	g := rdf.NewGraph()
	tupleClass := rdf.NewIRI(AnswerNS + "Tuple")
	g.Add(rdf.Triple{S: tupleClass, P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI(rdf.RDFSClass)})
	cols := a.Columns()
	for i, row := range a.Rows {
		tuple := rdf.NewIRI(fmt.Sprintf("%st%d", AnswerNS, i+1))
		g.Add(rdf.Triple{S: tuple, P: rdf.NewIRI(rdf.RDFType), O: tupleClass})
		for j, col := range cols {
			if row[j].IsZero() {
				continue
			}
			g.Add(rdf.Triple{S: tuple, P: rdf.NewIRI(AnswerNS + col), O: row[j]})
		}
	}
	return g
}

// DatasetContext returns an analysis context over the answer-as-dataset,
// rooted at the tuple class: the "Explore with FS" action of Fig 5.2.
func (a *Answer) DatasetContext() *Context {
	g := a.LoadAsDataset()
	return &Context{Graph: g, NS: AnswerNS, Root: rdf.NewIRI(AnswerNS + "Tuple")}
}
