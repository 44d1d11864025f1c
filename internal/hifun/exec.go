package hifun

import (
	"context"
	"fmt"
	"slices"
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
	// ExtraPatterns inject additional graph patterns rooted at ?x1: the
	// faceted layer renders a state's intention here, as the one sub-select
	// of its extension, so the generated SPARQL — the run's key, read set and
	// the text its Answer Frame shows — says what the query ranges over.
	ExtraPatterns []string
	// Extension, when set, is handed to the engine as the relation the
	// evaluated query starts from (sparql.Options.Extension): the faceted
	// layer's run evaluates its query with the sub-select left out and the
	// state's extension as ?x1's IDs instead.
	Extension *sparql.Relation
	// Trace, when non-nil, records the stages of Execute as spans under its
	// root: translate, exec (the engine, one leaf) and build_answer. Tracing
	// never changes the answer, only records how it was computed.
	Trace *obs.Trace
	// Profile, when non-nil, receives the engine's operator profile of the
	// generated SPARQL (EXPLAIN ANALYZE for the analytics pipeline): the
	// breakdown of the trace's exec span. Like Trace, it never changes the
	// answer.
	Profile *sparql.Profile
	// Limits are the resource budgets applied to the generated SPARQL
	// evaluation (intermediate rows, path depth/visited). Zero values use
	// the engine defaults.
	Limits sparql.Limits
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
	// Table is the engine's sorted answer, one row of IDs per group in
	// column order GroupCols ++ MeasureCols. It is read-only: an answer is
	// shared by every session served it.
	Table *sparql.Table
	// SPARQL is the executed query text (for provenance and the UI).
	SPARQL string
}

// Rows decodes the table into terms, for the consumers that work on terms.
func (a *Answer) Rows() [][]rdf.Term { return a.Table.Results().Rows }

// Columns returns all column names in order.
func (a *Answer) Columns() []string {
	return append(append([]string{}, a.GroupCols...), a.MeasureCols...)
}

// String renders the answer as an aligned table.
func (a *Answer) String() string {
	cells := [][]string{a.Columns()}
	for _, row := range a.Rows() {
		line := make([]string, len(row))
		for j, t := range row {
			if !t.IsZero() {
				line[j] = t.LocalName()
			}
		}
		cells = append(cells, line)
	}
	widths := make([]int, len(cells[0]))
	for _, line := range cells {
		for j, s := range line {
			widths[j] = max(widths[j], len(s))
		}
	}
	var sb strings.Builder
	for _, line := range cells {
		for j, s := range line {
			fmt.Fprintf(&sb, "%-*s ", widths[j], s)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Project returns the answer keeping only the named columns, in the given
// order — the Answer Frame's add/remove-columns affordance (§5.1, "Extra
// Columns") — over the same IDs (sparql.Table.Project). Unknown names are
// ignored; duplicate group rows that arise from dropping a grouping column
// are kept (the projection does not re-aggregate — use the session's roll-up
// for that).
func (a *Answer) Project(cols []string) *Answer {
	out := &Answer{Table: a.Table.Project(cols), SPARQL: a.SPARQL}
	for _, c := range out.Table.Vars {
		if slices.Contains(a.GroupCols, c) {
			out.GroupCols = append(out.GroupCols, c)
		} else {
			out.MeasureCols = append(out.MeasureCols, c)
		}
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
	p, err := c.Prepare(q)
	if err != nil {
		return nil, err
	}
	return c.ExecutePrepared(ctx, p)
}

// Prepared is a HIFUN query translated to SPARQL and parsed: what
// ExecutePrepared evaluates, and what a caller reads the generated query's
// shape and read set from without parsing it again.
type Prepared struct {
	Query  *Query
	SPARQL string
	Parsed *sparql.Query
	// translated and took time the translation, for the translate span of
	// the trace the evaluation records under, which may start later.
	translated time.Time
	took       time.Duration
}

// Prepare translates q against the context and parses the SPARQL it
// generates. Nothing is evaluated.
func (c *Context) Prepare(q *Query) (*Prepared, error) {
	start := time.Now()
	src, err := c.Translator().Translate(q)
	took := time.Since(start)
	translateSeconds.Observe(took.Seconds())
	if err != nil {
		return nil, err
	}
	parsed, err := sparql.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("hifun: generated SPARQL failed to parse: %w\n%s", err, src)
	}
	return &Prepared{Query: q, SPARQL: src, Parsed: parsed, translated: start, took: took}, nil
}

// ExecutePrepared evaluates a prepared query (see ExecuteCtx). Its trace
// holds the translation as it was timed by Prepare.
func (c *Context) ExecutePrepared(ctx context.Context, p *Prepared) (*Answer, error) {
	start := time.Now()
	defer func() { executeSeconds.Observe(time.Since(start).Seconds()) }()
	root := c.Trace.Root()
	if ts := root.AddChild("translate", p.translated, p.took); ts != nil {
		ts.SetAttr("hifun", p.Query.String())
	}
	es := root.StartChild("exec")
	tab, err := sparql.ExecSelectTable(ctx, c.Graph, p.Parsed, sparql.Options{Trace: c.Trace, Limits: c.Limits, Profile: c.Profile, Extension: c.Extension})
	es.Finish()
	if err != nil {
		return nil, err
	}
	bs := root.StartChild("build_answer")
	tab.Sort()
	ans := &Answer{Table: tab, SPARQL: p.SPARQL}
	nGroups := max(len(tab.Vars)-len(p.Query.Ops), 0)
	ans.GroupCols = append(ans.GroupCols, tab.Vars[:nGroups]...)
	ans.MeasureCols = append(ans.MeasureCols, tab.Vars[nGroups:]...)
	if bs != nil {
		bs.SetAttr("rows", tab.Len())
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
	return loadRows(a.Rows(), a.Columns(), AnswerNS, "Tuple", "t")
}

// loadRows loads rows, positional by cols, as §5.3.3 loads an answer: a
// class ns+class and, per row i, an item ns+item+i of that class with one
// triple (item, ns+column, value) per bound cell.
func loadRows(rows [][]rdf.Term, cols []string, ns, class, item string) *rdf.Graph {
	g := rdf.NewGraph()
	c := rdf.NewIRI(ns + class)
	g.Add(rdf.Triple{S: c, P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI(rdf.RDFSClass)})
	for i, row := range rows {
		s := rdf.NewIRI(fmt.Sprintf("%s%s%d", ns, item, i+1))
		g.Add(rdf.Triple{S: s, P: rdf.NewIRI(rdf.RDFType), O: c})
		for j, col := range cols {
			if !row[j].IsZero() {
				g.Add(rdf.Triple{S: s, P: rdf.NewIRI(ns + col), O: row[j]})
			}
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
