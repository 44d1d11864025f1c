package sparql

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"rdfanalytics/internal/obs"
)

// Operator-level runtime profiling (EXPLAIN ANALYZE). A Profile is an
// operator tree recorded while a query executes: per operator it aggregates
// wall time, rows in/out, invocation count, and — for index scans — the
// planner's cardinality estimate next to the actual output, summarized as
// the q-error max(est/act, act/est). Repeated invocations of the same
// operator at the same site (e.g. a per-binding OPTIONAL body, or the scans
// of a correlated subquery) fold into one node keyed by (op, label), so the
// tree stays bounded regardless of data size.
//
// Profiling follows the tracer's nil-safety convention: a nil *Profile (and
// the nil *ProfNode it hands out) is a valid no-op, so every instrumentation
// site costs one pointer test when profiling is off — proven by
// BenchmarkProfileOverhead and TestProfileDifferential.

// qerrorBuckets are the bucket bounds of rdfa_planner_qerror: a q-error of
// 1 is a perfect estimate, so the ladder starts there and grows
// geometrically to catch order-of-magnitude misestimates.
var qerrorBuckets = []float64{1, 1.5, 2, 4, 8, 16, 64, 256, 1024}

// The q-error family is registered eagerly so /metrics exposes it (with
// zero observations) before the first profiled query runs.
var plannerQError = obs.Default.Histogram("rdfa_planner_qerror", qerrorBuckets)

// Profile is the root handle of one query's operator profile. The zero
// value is not usable; call NewProfile. All methods are nil-safe.
type Profile struct {
	root *ProfNode
}

// NewProfile returns a profile whose root node carries the given name (the
// query kind, e.g. "sparql" or "run_analytics").
func NewProfile(name string) *Profile {
	return &Profile{root: &ProfNode{Op: name, EstRows: -1}}
}

// Root returns the root node, or nil for a nil profile — the evaluator
// stores this pointer and pays one nil test per instrumentation site.
func (p *Profile) Root() *ProfNode {
	if p == nil {
		return nil
	}
	return p.root
}

// Sub returns a profile rooted at the (op, label) child of p's root, so a
// pipeline stage (e.g. the HIFUN exec stage) can hand the evaluator a
// nested subtree. Nil-safe: a nil receiver yields a nil profile.
func (p *Profile) Sub(op, label string) *Profile {
	if p == nil {
		return nil
	}
	return &Profile{root: p.root.child(op, label)}
}

// SetTraceID links the profile's root node to an obs trace, so exported
// profiles carry the ID of the span tree recorded alongside them. Empty
// IDs and already-linked profiles are left untouched (a sub-profile's
// caller may have linked the shared root first).
func (p *Profile) SetTraceID(id string) {
	if p == nil || p.root == nil || id == "" || p.root.TraceID != "" {
		return
	}
	p.root.TraceID = id
}

// TraceID returns the linked trace ID ("" when unlinked or nil).
func (p *Profile) TraceID() string {
	if p == nil || p.root == nil {
		return ""
	}
	return p.root.TraceID
}

// ProfNode is one operator of the profile tree. Fields accumulate across
// invocations of the operator at this site. Nodes are written only by the
// evaluation's orchestration goroutine (worker partitions never touch the
// profile) and read after the query finishes, so no locking is needed.
type ProfNode struct {
	// Op is the operator kind: scan, bgp, filter, optional, union, minus,
	// subquery, path_scan, match, aggregate, extend, modifiers, translate...
	Op string
	// Label distinguishes operator sites of the same kind, e.g. the triple
	// pattern of a scan or the expression of a filter.
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
	// FbSeeded marks a scan whose cardinality estimate came from the
	// planner's execution-feedback store rather than the cold graph count.
	FbSeeded bool
	// FbCtx is the scan's bound-variable context under the executed plan —
	// the feedback store keys observed actuals by (label, context) so an
	// actual never seeds the same pattern at a different join position.
	FbCtx string
	// Replans counts mid-query re-optimizations under a BGP node.
	Replans int
	// Dur totals wall time across calls.
	Dur time.Duration
	// TraceID links the profile to the obs trace of the execution that
	// produced it (set on the root node only, by Profile.SetTraceID).
	TraceID string

	children []*ProfNode
	index    map[string]*ProfNode
}

// child returns (creating on first use) the child node for (op, label).
func (n *ProfNode) child(op, label string) *ProfNode {
	if n == nil {
		return nil
	}
	key := op + "\x00" + label
	if c, ok := n.index[key]; ok {
		return c
	}
	c := &ProfNode{Op: op, Label: label, EstRows: -1}
	if n.index == nil {
		n.index = map[string]*ProfNode{}
	}
	n.index[key] = c
	n.children = append(n.children, c)
	return c
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

// setStrategy records the chosen join strategy.
func (n *ProfNode) setStrategy(s string) {
	if n != nil {
		n.Strategy = s
	}
}

// setFeedback marks the scan's estimate as feedback-seeded.
func (n *ProfNode) setFeedback() {
	if n != nil {
		n.FbSeeded = true
	}
}

// setFbCtx records the scan's bound-variable context (last call wins).
func (n *ProfNode) setFbCtx(ctx string) {
	if n != nil && ctx != "" {
		n.FbCtx = ctx
	}
}

// addReplans accumulates mid-query re-optimizations of a BGP run.
func (n *ProfNode) addReplans(k int) {
	if n != nil {
		n.Replans += k
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
	e, a := float64(max64(est, 1)), float64(max64(act, 1))
	if e > a {
		return e / a
	}
	return a / e
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// profLabel renders an operator's label, only when profiling is on.
func (ev *evaluator) profLabel(op fmt.Stringer) string {
	if ev.prof == nil {
		return ""
	}
	return op.String()
}

// profEnter descends into (creating if needed) the current node's child for
// (op, label) and makes it current. It returns the previous current node
// and the start time for profExit. When profiling is off it returns nil and
// does nothing — one pointer test, mirroring enterSpan.
func (ev *evaluator) profEnter(op, label string) (*ProfNode, time.Time) {
	if ev.prof == nil {
		return nil, time.Time{}
	}
	parent := ev.prof
	ev.prof = parent.child(op, label)
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

// Record folds one finished invocation into the profile's root node. It is
// how pipeline stages outside the evaluator (the HIFUN translate and
// build_answer stages, the session's end-to-end run) report their timings
// into a profile subtree obtained via Sub. Nil-safe.
func (p *Profile) Record(d time.Duration, rowsIn, rowsOut int) {
	if p == nil {
		return
	}
	p.root.record(d, rowsIn, rowsOut)
}

// Tree renders the profile as an indented text tree, one operator per line
// with calls, rows in/out, wall time, and — on scan nodes — the planner
// estimate, actual cardinality and q-error. This is the EXPLAIN ANALYZE
// output of sparqlrun -explain-analyze and the rdfa-cli profile command.
func (p *Profile) Tree() string {
	if p == nil {
		return ""
	}
	var sb strings.Builder
	p.root.writeTree(&sb, 0)
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
	if n.FbSeeded {
		sb.WriteString(" [feedback]")
	}
	if n.Replans > 0 {
		fmt.Fprintf(sb, " replans=%d", n.Replans)
	}
	if n.Strategy != "" {
		fmt.Fprintf(sb, " [%s]", n.Strategy)
	}
	sb.WriteString("  " + fmtProfDur(n.Dur) + "\n")
	for _, c := range n.children {
		c.writeTree(sb, depth+1)
	}
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

// ProfNodeJSON is the wire form of a profile node (GET /api/trace).
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
	FbSeeded   bool           `json:"feedback_seeded,omitempty"`
	Replans    int            `json:"replans,omitempty"`
	DurationMS float64        `json:"duration_ms"`
	Children   []ProfNodeJSON `json:"children,omitempty"`
}

// Export returns the profile as a JSON-marshalable tree, or nil for a nil
// profile.
func (p *Profile) Export() *ProfNodeJSON {
	if p == nil {
		return nil
	}
	out := p.root.export()
	return &out
}

func (n *ProfNode) export() ProfNodeJSON {
	out := ProfNodeJSON{
		Op:         n.Op,
		TraceID:    n.TraceID,
		Label:      n.Label,
		Calls:      n.Calls,
		RowsIn:     n.RowsIn,
		RowsOut:    n.RowsOut,
		Strategy:   n.Strategy,
		FbSeeded:   n.FbSeeded,
		Replans:    n.Replans,
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

// EstimateStat summarizes one profiled operator that carried a planner
// estimate — the rows of the dashboard's plan-vs-actual misestimation table.
type EstimateStat struct {
	Op     string  `json:"op"`
	Label  string  `json:"label"`
	Est    int64   `json:"est"`
	Actual int64   `json:"actual"`
	QError float64 `json:"q_error"`
	// Feedback marks an estimate seeded from the planner's feedback store.
	Feedback bool `json:"feedback,omitempty"`
	// Ctx is the scan's bound-variable context, the second half of its
	// feedback site key (empty on operators that are not scans).
	Ctx string `json:"ctx,omitempty"`
	// ActualIn is the input binding count the operator consumed — with
	// Actual it gives the feedback store the site's observed per-input-row
	// selectivity.
	ActualIn int64 `json:"actual_in,omitempty"`
}

// Estimates collects every estimate-carrying operator of the profile,
// worst q-error first.
func (p *Profile) Estimates() []EstimateStat {
	if p == nil {
		return nil
	}
	var out []EstimateStat
	p.root.collectEstimates(&out)
	sort.SliceStable(out, func(i, j int) bool { return out[i].QError > out[j].QError })
	return out
}

func (n *ProfNode) collectEstimates(acc *[]EstimateStat) {
	if n.EstRows >= 0 {
		*acc = append(*acc, EstimateStat{
			Op: n.Op, Label: n.Label, Est: n.EstRows, Actual: n.RowsOut,
			QError: n.QError(), Feedback: n.FbSeeded, Ctx: n.FbCtx,
			ActualIn: n.RowsIn,
		})
	}
	for _, c := range n.children {
		c.collectEstimates(acc)
	}
}

// MaxQError returns the worst q-error across the profile's operators, or 0
// when no operator carried an estimate.
func (p *Profile) MaxQError() float64 {
	if p == nil {
		return 0
	}
	worst := 0.0
	var walk func(n *ProfNode)
	walk = func(n *ProfNode) {
		if q := n.QError(); q > worst {
			worst = q
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(p.root)
	return worst
}

// emitMetrics publishes the finished profile into the Prometheus registry:
// one rdfa_planner_qerror observation per estimate-carrying operator, and
// per-operator row/time totals. Called once per profiled query, off the
// evaluation hot path.
func (p *Profile) emitMetrics() {
	if p == nil {
		return
	}
	var walk func(n *ProfNode)
	walk = func(n *ProfNode) {
		if n.Calls > 0 {
			obs.Default.Counter("rdfa_sparql_operator_rows_total", "op", n.Op).Add(uint64(n.RowsOut))
			obs.Default.Histogram("rdfa_sparql_operator_seconds", nil, "op", n.Op).Observe(n.Dur.Seconds())
		}
		if n.EstRows >= 0 {
			plannerQError.Observe(n.QError())
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(p.root)
}
