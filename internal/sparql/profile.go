package sparql

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"rdfanalytics/internal/obs"
	"rdfanalytics/internal/rdf"
)

// Operator-level runtime profiling (EXPLAIN ANALYZE). A Profile is an
// operator tree recorded while a query executes: per operator it aggregates
// wall time, rows in/out, invocation count, and — for index scans — the
// planner's cardinality estimate next to the actual output, summarized as
// the q-error max(est/act, act/est). Repeated invocations of the same
// operator at the same site (e.g. a FILTER EXISTS pattern, run once per row
// it tests) fold into one node, found by (op, site) and labelled once, so
// the tree stays bounded regardless of data size.
//
// The profile is the engine's one instrument: a trace of the operation the
// query belongs to holds the engine as one leaf, and the profile is that
// leaf's breakdown. A nil *Profile (and the nil *ProfNode it hands out) is a
// valid no-op, so every instrumentation site costs one pointer test when
// profiling is off — proven by BenchmarkProfileOverhead and
// TestProfileDifferential.

// qerrorBuckets are the bucket bounds of rdfa_planner_qerror: a q-error of
// 1 is a perfect estimate, so the ladder starts there and grows
// geometrically to catch order-of-magnitude misestimates.
var qerrorBuckets = []float64{1, 1.5, 2, 4, 8, 16, 64, 256, 1024}

// The q-error family is registered eagerly so /metrics exposes it (with
// zero observations) before the first profiled query runs.
var plannerQError = obs.Default.Histogram("rdfa_planner_qerror", qerrorBuckets)

// Profile is the root handle of one query's operator profile. The zero
// value is not usable; call NewProfile. All methods are nil-safe.
//
// The tree lives in a slab: its nodes, and the lists of their children, are
// cut from chunks the profile holds — the first chunks come with it — so
// profiling a query costs the same few allocations whatever the query, up to
// profChunk operators. A node holds its site rather than its label: labels
// are rendered when something reads them (Root, Tree, Export, Estimates,
// EachEstimate). Reading renders into the profile, so, as while the query
// writes it, one goroutine at a time reads it.
type Profile struct {
	root    *ProfNode // the first node of the first chunk
	traceID string
	// nodes is the chunk new nodes come from; its length counts the ones
	// handed out. It never grows in place, so a node never moves.
	nodes []ProfNode
	// lists is the chunk children lists come from, the same way.
	lists []*ProfNode
	// text is scratch for rendering a label, backed by scratch until a
	// label outgrows it.
	text       []byte
	scratch    [256]byte
	firstNodes [profChunk]ProfNode
	firstLists [4 * profChunk]*ProfNode
}

// profChunk is the number of nodes in a chunk of a profile's slab: a query
// of a dozen patterns, their filters and its modifiers fits the first.
const profChunk = 16

// NewProfile returns a profile whose root node carries the given name (the
// query kind, e.g. "sparql" or "run_analytics").
func NewProfile(name string) *Profile {
	p := &Profile{}
	p.nodes, p.lists, p.text = p.firstNodes[:1], p.firstLists[:0], p.scratch[:0]
	p.root = &p.firstNodes[0]
	*p.root = ProfNode{Op: name, EstRows: -1, prof: p}
	return p
}

// Root returns the root node with every label of the tree rendered, or nil
// for a nil profile. The evaluator records into p.root, labels unrendered.
func (p *Profile) Root() *ProfNode {
	if p == nil {
		return nil
	}
	p.root.renderLabels()
	return p.root
}

// SetTraceID links the profile to an obs trace, so exported profiles carry
// the ID of the span tree recorded alongside them. An empty ID is ignored.
func (p *Profile) SetTraceID(id string) {
	if p == nil || id == "" {
		return
	}
	p.traceID = id
}

// TraceID returns the linked trace ID ("" when unlinked or nil).
func (p *Profile) TraceID() string {
	if p == nil {
		return ""
	}
	return p.traceID
}

// newNode hands out the next node of the slab, starting a chunk when the
// current one is full.
func (p *Profile) newNode() *ProfNode {
	if len(p.nodes) == cap(p.nodes) {
		p.nodes = make([]ProfNode, 0, profChunk)
	}
	p.nodes = p.nodes[:len(p.nodes)+1]
	return &p.nodes[len(p.nodes)-1]
}

// addChild appends c to n's children. A full list moves to a span of the
// slab twice its size (4 at first); what it leaves is not reused.
func (p *Profile) addChild(n, c *ProfNode) {
	if len(n.children) == cap(n.children) {
		size := max(4, 2*cap(n.children))
		if cap(p.lists)-len(p.lists) < size {
			p.lists = make([]*ProfNode, 0, max(size, 4*profChunk))
		}
		span := p.lists[len(p.lists) : len(p.lists)+size : len(p.lists)+size]
		p.lists = p.lists[:len(p.lists)+size]
		n.children = span[:copy(span, n.children)]
	}
	n.children = append(n.children, c)
}

// ProfNode is one operator of the profile tree. Fields accumulate across
// invocations of the operator at this site. Nodes are written only by the
// goroutine that evaluates the query and read after the query finishes, so
// no locking is needed.
type ProfNode struct {
	// Op is the operator kind: scan, bgp, filter, optional, union, minus,
	// subquery, extension, path_scan, match, aggregate, extend, modifiers.
	Op string
	// Label distinguishes operator sites of the same kind, e.g. the triple
	// pattern of a scan or the expression of a filter. It is rendered from
	// the site when the tree is read (Profile.Root).
	Label string
	// Calls counts invocations folded into this node.
	Calls int
	// RowsIn / RowsOut total the rows entering and leaving the operator.
	RowsIn, RowsOut int64
	// EstRows totals the planner's estimated output cardinality across
	// calls; -1 means the operator carries no estimate (only index scans
	// do — their estimate is the graph count (rdf.Graph.MatchCountIDs)).
	EstRows int64
	// Strategy is the join strategy an index scan chose (last call wins).
	Strategy string
	// Dur totals wall time across calls.
	Dur time.Duration
	// Fold marks the scan whose rows went straight to the group fold.
	Fold bool

	prof     *Profile    // the slab the node's children come from
	children []*ProfNode // in the order they first ran; cut from the slab
	site     any         // the first site folded into the node
}

// child returns (creating on first use) the child node for op at site: the
// query's *TriplePattern or *Expr the operator runs, the variable an
// Extension binds, or nil for one without a label. A site is found by
// identity; two sites of one text share the node their label names, which
// is found by rendering both texts into the profile's scratch.
func (n *ProfNode) child(op string, site any) *ProfNode {
	if n == nil {
		return nil
	}
	for _, c := range n.children {
		if c.Op == op && c.site == site {
			return c
		}
	}
	if c := n.sameText(op, site); c != nil {
		return c
	}
	c := n.prof.newNode()
	*c = ProfNode{Op: op, EstRows: -1, prof: n.prof, site: site}
	n.prof.addChild(n, c)
	return c
}

// sameText returns the child for op whose site renders the text site
// renders, or nil.
func (n *ProfNode) sameText(op string, site any) *ProfNode {
	p := n.prof
	var text []byte // site's, rendered at the first child of op
	for _, c := range n.children {
		if c.Op != op {
			continue
		}
		if text == nil {
			text = appendLabel(p.text[:0], site)
		}
		both := appendLabel(text, c.site)
		p.text, text = both, both[:len(text)]
		if string(both[len(text):]) == string(text) {
			return c
		}
	}
	return nil
}

// appendLabel appends the label of an operator site: the text of its
// triple pattern or expression, or the variable an Extension binds.
func appendLabel(b []byte, site any) []byte {
	switch s := site.(type) {
	case *TriplePattern:
		return s.appendText(b)
	case *Expr:
		return appendExpr(b, *s)
	case string:
		return append(b, s...)
	}
	return b
}

// renderLabels renders the label of every node of the subtree that has not
// got one yet.
func (n *ProfNode) renderLabels() {
	if n.Label == "" && n.site != nil {
		p := n.prof
		p.text = appendLabel(p.text[:0], n.site)
		n.Label = string(p.text)
	}
	for _, c := range n.children {
		c.renderLabels()
	}
}

// record folds one finished invocation into the node.
func (n *ProfNode) record(d time.Duration, rowsIn, rowsOut int) {
	if n == nil {
		return
	}
	n.Calls++
	n.Dur += d
	n.RowsIn += int64(rowsIn)
	n.RowsOut += int64(rowsOut)
}

// addEst accumulates a planner cardinality estimate for this operator.
func (n *ProfNode) addEst(est int) {
	if n == nil {
		return
	}
	if n.EstRows < 0 {
		n.EstRows = 0
	}
	n.EstRows += int64(est)
}

// setStrategy records the chosen join strategy and whether the scan fed the
// group fold.
func (n *ProfNode) setStrategy(s string, fold bool) {
	if n != nil {
		n.Strategy, n.Fold = s, fold
	}
}

// QError returns the node's q-error max(est/act, act/est) — the standard
// symmetric misestimation factor — with both sides clamped to >= 1 so empty
// results don't divide by zero. Returns 0 when the node has no estimate.
func (n *ProfNode) QError() float64 {
	if n == nil || n.EstRows < 0 {
		return 0
	}
	return QError(n.EstRows, n.RowsOut)
}

// QError computes max(est/act, act/est) with both sides clamped to >= 1.
func QError(est, act int64) float64 {
	e, a := float64(max(est, 1)), float64(max(act, 1))
	if e > a {
		return e / a
	}
	return a / e
}

// profEnter descends into (creating if needed) the current node's child for
// op at site and makes it current. It returns the previous current node
// and the start time for profExit. When profiling is off it returns nil and
// does nothing — one pointer test.
func (ev *evaluator) profEnter(op string, site any) (*ProfNode, time.Time) {
	if ev.prof == nil {
		return nil, time.Time{}
	}
	parent := ev.prof
	ev.prof = parent.child(op, site)
	return parent, time.Now()
}

// profExit folds the finished invocation into the node opened by profEnter
// and pops back to its parent.
func (ev *evaluator) profExit(parent *ProfNode, start time.Time, rowsIn, rowsOut int) {
	if parent == nil {
		return
	}
	ev.prof.record(time.Since(start), rowsIn, rowsOut)
	ev.prof = parent
}

// profAdd records one invocation of the current node's child for op at site
// that ran inside the operator that measured its time d: an in-run filter,
// applied as its join step writes.
func (ev *evaluator) profAdd(op string, site any, d time.Duration, rowsIn, rowsOut int) {
	if ev.prof != nil {
		ev.prof.child(op, site).record(d, rowsIn, rowsOut)
	}
}

// ExplainAnalyze executes a SELECT query with the operator-level profiler
// enabled and returns the EXPLAIN ANALYZE tree: every operator node carries
// its invocation count, actual rows in/out and wall time, and every index
// scan additionally shows the planner's graph-count estimate next to the
// actual cardinality with the q-error max(est/act, act/est), and the join
// type it ran. Scans appear in the order the plan ran them. The query's
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

// Tree renders the profile as an indented text tree, one operator per line
// with calls, rows in/out, wall time, and — on scan nodes — the planner
// estimate, actual cardinality and q-error. This is the EXPLAIN ANALYZE
// output of rdfa-cli sparql -explain-analyze and the REPL's profile command.
func (p *Profile) Tree() string {
	if p == nil {
		return ""
	}
	var sb strings.Builder
	p.Root().writeTree(&sb, 0)
	return sb.String()
}

func (n *ProfNode) writeTree(sb *strings.Builder, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(n.Op)
	if n.Label != "" {
		sb.WriteString(" " + n.Label)
	}
	fmt.Fprintf(sb, "  calls=%d rows=%d→%d", n.Calls, n.RowsIn, n.RowsOut)
	if n.EstRows >= 0 {
		fmt.Fprintf(sb, " est=%d act=%d q-err=%.2f", n.EstRows, n.RowsOut, n.QError())
	}
	if n.Strategy != "" {
		fmt.Fprintf(sb, " [%s]", n.Strategy)
	}
	if n.Fold {
		sb.WriteString(" [fold]")
	}
	sb.WriteString("  " + fmtProfDur(n.Dur) + "\n")
	for _, c := range n.children {
		c.writeTree(sb, depth+1)
	}
}

// Summary renders the root's operators on one line, "op=duration" each in
// the order they first ran — the engine's half of a slow-query log line's
// plan.
func (p *Profile) Summary() string {
	if p == nil {
		return ""
	}
	var sb strings.Builder
	for i, c := range p.root.children {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(c.Op + "=" + fmtProfDur(c.Dur))
	}
	return sb.String()
}

// fmtProfDur renders a duration at display precision.
func fmtProfDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// ProfNodeJSON is the wire form of a profile node (GET /api/traces/{id}).
type ProfNodeJSON struct {
	Op         string         `json:"op"`
	TraceID    string         `json:"trace_id,omitempty"`
	Label      string         `json:"label,omitempty"`
	Calls      int            `json:"calls"`
	RowsIn     int64          `json:"rows_in"`
	RowsOut    int64          `json:"rows_out"`
	EstRows    *int64         `json:"est_rows,omitempty"`
	QError     float64        `json:"q_error,omitempty"`
	Strategy   string         `json:"strategy,omitempty"`
	Fold       bool           `json:"fold,omitempty"`
	DurationMS float64        `json:"duration_ms"`
	Children   []ProfNodeJSON `json:"children,omitempty"`
}

// Export returns the profile as a JSON-marshalable tree, or nil for a nil
// profile.
func (p *Profile) Export() *ProfNodeJSON {
	if p == nil {
		return nil
	}
	out := p.Root().export()
	out.TraceID = p.traceID
	return &out
}

func (n *ProfNode) export() ProfNodeJSON {
	out := ProfNodeJSON{
		Op:         n.Op,
		Label:      n.Label,
		Calls:      n.Calls,
		RowsIn:     n.RowsIn,
		RowsOut:    n.RowsOut,
		Strategy:   n.Strategy,
		Fold:       n.Fold,
		DurationMS: float64(n.Dur.Microseconds()) / 1000,
	}
	if n.EstRows >= 0 {
		est := n.EstRows
		out.EstRows = &est
		out.QError = n.QError()
	}
	for _, c := range n.children {
		out.Children = append(out.Children, c.export())
	}
	return out
}

// MarshalJSON renders the profile as its exported node tree.
func (p *Profile) MarshalJSON() ([]byte, error) {
	return json.Marshal(p.Export())
}

// EachEstimate hands sink one row per estimate-carrying operator of the
// profile, in tree order, the operator's label rendered into the profile's
// scratch: the operations log's plan-vs-actual rows, at no allocation.
func (p *Profile) EachEstimate(sink obs.EstimateSink) {
	if p != nil {
		p.root.eachEstimate(sink)
	}
}

func (n *ProfNode) eachEstimate(sink obs.EstimateSink) {
	if n.EstRows >= 0 {
		p := n.prof
		p.text = appendLabel(p.text[:0], n.site)
		sink.Estimate(obs.OpEstimate{Op: n.Op, Est: n.EstRows, Actual: n.RowsOut, QError: n.QError()}, p.text)
	}
	for _, c := range n.children {
		c.eachEstimate(sink)
	}
}

// Estimates collects every estimate-carrying operator of the profile as
// plan-vs-actual rows, in tree order.
func (p *Profile) Estimates() []obs.OpEstimate {
	var out estimateList
	p.EachEstimate(&out)
	return out
}

// estimateList is the sink Estimates collects into.
type estimateList []obs.OpEstimate

func (l *estimateList) Estimate(row obs.OpEstimate, label []byte) {
	row.Label = string(label)
	*l = append(*l, row)
}

// MaxQError returns the worst q-error across the profile's operators, or 0
// when no operator carried an estimate.
func (p *Profile) MaxQError() float64 {
	if p == nil {
		return 0
	}
	return p.root.maxQError()
}

func (n *ProfNode) maxQError() float64 {
	worst := n.QError()
	for _, c := range n.children {
		worst = max(worst, c.maxQError())
	}
	return worst
}

// emitMetrics publishes the finished profile into the Prometheus registry:
// one rdfa_planner_qerror observation per estimate-carrying operator, and
// per-operator row/time totals. Called once per profiled query, off the
// evaluation hot path; it allocates nothing once its operators' series exist.
func (p *Profile) emitMetrics() {
	if p != nil {
		p.root.emitMetrics()
	}
}

func (n *ProfNode) emitMetrics() {
	if n.Calls > 0 {
		obs.Default.Counter("rdfa_sparql_operator_rows_total", "op", n.Op).Add(uint64(n.RowsOut))
		obs.Default.Histogram("rdfa_sparql_operator_seconds", nil, "op", n.Op).Observe(n.Dur.Seconds())
	}
	if n.EstRows >= 0 {
		plannerQError.Observe(n.QError())
	}
	for _, c := range n.children {
		c.emitMetrics()
	}
}
