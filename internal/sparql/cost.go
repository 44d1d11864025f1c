package sparql

// The planner's cost model. Costs are abstract row-touch counts: one unit
// per index probe, per build-side row scanned, and per output row produced.
// They only need to rank plans, not predict wall time. Cardinalities come
// from two sources:
//
//  1. the graph's own count of the pattern with constants only
//     (rdf.Graph.MatchCountIDs: two searches in a sorted permutation);
//  2. the bound-variable reduction heuristic: each pattern variable that
//     arrives bound divides the graph count by boundVarFactor.
//
// Nothing an earlier execution observed enters it, so a plan is a function
// of the query text and the graph (DESIGN.md §8).

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
// read-only while planning.
type costModel struct {
	rp *runPlan
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
	// measured against: the graph count of its constant positions.
	card int
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
	est := stepEstimate{outRows: min(inRows*perRow, costCap), card: pp.baseEst}
	est.strategy = chooseStrategy(base, inRows, nJoin, false)
	if est.strategy == strategyHashJoin {
		// Scan the build side once (constants-only match count), probe each
		// input row, produce the output.
		est.cost = base + inRows + est.outRows
	} else {
		// One index probe per input row plus the produced rows (an index
		// probe touches only matching triples, but pays more per call than a
		// hash probe).
		est.cost = nlProbeCost*inRows + est.outRows
	}
	est.cost = min(est.cost, costCap)
	return est
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
