package sparql

import (
	"sort"
	"strings"
)

// The planner's cost model. Costs are abstract row-touch counts: one unit
// per index probe, per build-side row scanned, and per output row produced.
// They only need to rank plans, not predict wall time. Cardinalities come
// from three sources, best first:
//
//  1. feedback — the (input, output) cardinality this scan site observed
//     the last time the same query fingerprint ran on this graph version
//     (FeedbackStore.SiteActuals), applied as a per-input-row selectivity:
//     predicted out = in × observedOut/observedIn. Sites are keyed by
//     (pattern label, bound-variable context): a scan's selectivity
//     depends on which join variables arrived bound, so an observation at
//     one plan position must not seed the same pattern under different
//     bindings — a context miss falls back to the cold estimate instead
//     of a confidently wrong number;
//  2. the graph's own count of the pattern with constants only
//     (rdf.Graph.MatchCountIDs: two searches in a sorted permutation);
//  3. the bound-variable reduction heuristic: each pattern variable that
//     arrives bound divides the graph count by boundVarFactor.

const (
	// boundVarFactor is the selectivity credit for a join variable: a bound
	// S/O position is assumed to cut the pattern's match count by this
	// factor (no distinct-value statistics are kept).
	boundVarFactor = 10
	// costCap keeps the cost arithmetic away from float overflow on
	// pathological cross products; plans beyond it are all "equally awful".
	costCap = 1e30
	// nlProbeCost is the priced overhead of one index probe relative to one
	// hash probe. At hashBuildFactor+1 a joining step that chooseStrategy
	// sends to a hash join (build side at most hashBuildFactor× the input) is
	// never priced above the index loop it replaces.
	nlProbeCost = float64(hashBuildFactor + 1)
)

// costModel prices pattern joins for one BGP run. It is built per run and
// read-only while planning, so DP and mid-query replans can share it.
type costModel struct {
	rp *runPlan
	// labels[i] is the pattern's canonical string (equal to the profiler's
	// scan label), the first half of the feedback site key.
	labels []string
	// fb maps feedback site keys — label + "\x00" + bound-variable context
	// (see ctxKey) — to observed (input, output) cardinalities (nil when
	// the query has no feedback). A hit overrides the estimate's per-row
	// selectivity entirely.
	fb map[string]SiteActual
}

// newCostModel prices the patterns of rp. run supplies the pattern labels
// (rp stores only compiled IDs); fb is the evaluator's per-query feedback
// snapshot, possibly nil.
func newCostModel(rp *runPlan, run []*TriplePattern, fb map[string]SiteActual) *costModel {
	cm := &costModel{rp: rp, fb: fb, labels: make([]string, len(run))}
	for i, tp := range run {
		cm.labels[i] = tp.String()
	}
	return cm
}

// stepEstimate is the cost model's prediction for joining one pattern into
// a partial plan.
type stepEstimate struct {
	// outRows is the predicted output cardinality of the step.
	outRows float64
	// cost is the predicted work of the step under strategy.
	cost float64
	// strategy is what chooseStrategy picks at the predicted input size.
	strategy joinStrategy
	// card is the per-pattern cardinality the scan's profile q-error is
	// measured against: the feedback actual on a hit, the graph count
	// otherwise (the pre-feedback convention, so cold q-errors compare).
	card int
	// fbSeeded reports whether feedback supplied the cardinality.
	fbSeeded bool
}

// step prices joining pattern i into a partial plan with inRows input rows
// and the variable columns of boundCols already bound (a bitmask over
// rp.vars). The join type is not searched over: the step is priced as the
// strategy chooseStrategy — the rule execution applies to the live rows —
// picks at the estimated input.
func (cm *costModel) step(i int, inRows float64, boundCols uint64) stepEstimate {
	pp := &cm.rp.pats[i]
	base := float64(pp.baseEst)
	// Per-row match estimate: bound S and O positions cut the base count.
	perRow := base
	nJoin := 0
	seen := uint64(0)
	for _, pos := range [3]int{0, 2, 1} { // S and O first: only they cut the estimate
		idx := pp.pos[pos]
		if idx < 0 || seen&(1<<uint(idx)) != 0 {
			continue
		}
		seen |= 1 << uint(idx)
		if boundCols&(1<<uint(idx)) == 0 {
			continue
		}
		nJoin++
		if pos != 1 && perRow > 1 {
			perRow = perRow/boundVarFactor + 1
		}
	}
	if inRows < 1 {
		inRows = 1
	}
	out := inRows * perRow
	est := stepEstimate{card: pp.baseEst}
	if cm.fb != nil {
		if site, ok := cm.fb[cm.labels[i]+"\x00"+cm.ctxKey(i, boundCols)]; ok {
			// Feedback: scale the site's observed per-input-row selectivity
			// to this candidate's input — never reuse the output as an
			// absolute (a 16-row observation at 1 input row must price as
			// 32k rows when crossed against 2000).
			obsIn := float64(site.In)
			if obsIn < 1 {
				obsIn = 1
			}
			obsOut := float64(site.Out)
			if obsOut < 0 {
				obsOut = 0
			}
			out = inRows * (obsOut / obsIn)
			est.card = int(out + 0.5)
			est.fbSeeded = true
		}
	}
	if out > costCap {
		out = costCap
	}
	est.outRows = out
	est.strategy = chooseStrategy(base, inRows, nJoin, false)
	if est.strategy == strategyHashJoin {
		// Scan the build side once (constants-only match count), probe each
		// input row, produce the output.
		est.cost = base + inRows + out
	} else {
		// One index probe per input row plus the produced rows (an index
		// probe touches only matching triples, but pays more per call than a
		// hash probe).
		est.cost = nlProbeCost*inRows + out
	}
	if est.cost > costCap {
		est.cost = costCap
	}
	return est
}

// ctxKey renders pattern i's bound-variable context under boundCols: the
// sorted names of the pattern's variables that arrive bound, e.g. "[s,o]",
// or "[]" when none do. It is the second half of a feedback site key —
// observed actuals only transfer to replans where the same join variables
// are bound, since a scan's output cardinality is a function of its input
// bindings, not of the pattern alone. Never empty.
func (cm *costModel) ctxKey(i int, boundCols uint64) string {
	pp := &cm.rp.pats[i]
	var names []string
	seen := uint64(0)
	for _, idx := range pp.pos {
		if idx < 0 || seen&(1<<uint(idx)) != 0 {
			continue
		}
		seen |= 1 << uint(idx)
		if boundCols&(1<<uint(idx)) != 0 {
			names = append(names, cm.rp.vars[idx])
		}
	}
	sort.Strings(names)
	return "[" + strings.Join(names, ",") + "]"
}

// patternCols returns the bitmask of variable columns pattern i binds.
func (cm *costModel) patternCols(i int) uint64 {
	var mask uint64
	for _, idx := range cm.rp.pats[i].pos {
		if idx >= 0 {
			mask |= 1 << uint(idx)
		}
	}
	return mask
}
