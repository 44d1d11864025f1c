package sparql

import "math"

// Cost-based BGP planning. A run of triple patterns is compiled to an
// explicit plan: an ordered sequence of scan steps, each carrying the
// filters pushed inside the run. The plan fixes the join order only; the
// join type of a step is decided when it executes, from the live row count
// (chooseStrategy in join.go), and the cost model prices a step with that
// same rule on its estimated input. Join-order search is exact dynamic
// programming over pattern subsets for runs of up to dpMaxPatterns, and
// greedy with one-step lookahead beyond; both read the costModel in
// cost.go. A run is planned once, before its first step, and executes in
// that order; the profile's scan nodes record it (EXPLAIN ANALYZE).

// dpMaxPatterns is the largest run planned by exhaustive subset DP (2^10 ×
// 10 transitions ≈ 10k cost evaluations, microseconds); longer runs use
// greedy ordering with one-step lookahead.
const dpMaxPatterns = 10

// planStep is one scan of a BGP plan.
type planStep struct {
	// pat indexes the pattern in the source run / runPlan: its textual
	// position within the run.
	pat int
	// filters are pushed-down filters applied right after this step,
	// inside the run's ID space.
	filters []*runFilter
}

// runFilter is a filter expression pushed inside a BGP run, applied in ID
// space as soon as its variables are bound.
type runFilter struct {
	expr *Expr
	vars map[string]bool
}

// planBGP builds the plan for a run: join-order search over the cost model
// (the identity order under NoReorder), with estimation-only bound columns
// (variables flowing in from VALUES/BIND/earlier elements) seeding the
// selectivity math. A run in an OPTIONAL body is ordered for one input row
// (evaluator.inBody).
func (ev *evaluator) planBGP(rp *runPlan, boundCols uint64, inRows int) []planStep {
	cm := &costModel{rp: rp}
	order := make([]int, len(rp.pats))
	for i := range order {
		order[i] = i
	}
	if orderRows := float64(inRows); !ev.noReorder {
		if ev.inBody {
			orderRows = 1
		}
		order = planOrder(cm, order, boundCols, orderRows)
	}
	steps := make([]planStep, len(order))
	for i, p := range order {
		steps[i] = planStep{pat: p}
	}
	return steps
}

// planOrder searches for the cheapest execution order of the given pattern
// indexes: exact subset DP up to dpMaxPatterns, greedy with one-step
// lookahead beyond (or when the run has more variables than the bitmask
// width). Deterministic: ties break toward lower estimated rows, then
// lower pattern index, which is the pattern's textual position.
func planOrder(cm *costModel, pats []int, boundCols uint64, inRows float64) []int {
	n := len(pats)
	if n <= 1 {
		return pats
	}
	if n > dpMaxPatterns || len(cm.rp.vars) > 64 {
		return greedyLookahead(cm, pats, boundCols, inRows)
	}
	return dpOrder(cm, pats, boundCols, inRows)
}

// dpCell is one DP state: the best known way to have executed the subset.
type dpCell struct {
	cost, rows float64
	last       int8 // index into pats of the final pattern of the best path
	set        bool
}

// dpOrder is Selinger-style exhaustive search over pattern subsets.
func dpOrder(cm *costModel, pats []int, boundCols uint64, inRows float64) []int {
	n := len(pats)
	cols := make([]uint64, n)
	for i, p := range pats {
		cols[i] = cm.patternCols(p)
	}
	cells := make([]dpCell, 1<<uint(n))
	cells[0] = dpCell{rows: inRows, set: true, last: -1}
	for mask := 1; mask < 1<<uint(n); mask++ {
		var best dpCell
		for j := 0; j < n; j++ {
			if mask&(1<<uint(j)) == 0 {
				continue
			}
			prev := mask &^ (1 << uint(j))
			pc := cells[prev]
			bc := boundCols
			for k := 0; k < n; k++ {
				if prev&(1<<uint(k)) != 0 {
					bc |= cols[k]
				}
			}
			se := cm.step(pats[j], pc.rows, bc)
			cand := dpCell{cost: pc.cost + se.cost, rows: se.outRows, last: int8(j), set: true}
			if cand.cost > costCap {
				cand.cost = costCap
			}
			if !best.set || cand.cost < best.cost ||
				(cand.cost == best.cost && cand.rows < best.rows) ||
				(cand.cost == best.cost && cand.rows == best.rows && cand.last < best.last) {
				best = cand
			}
		}
		cells[mask] = best
	}
	// Reconstruct the order from the last pointers.
	order := make([]int, 0, n)
	mask := 1<<uint(n) - 1
	for mask != 0 {
		j := int(cells[mask].last)
		order = append(order, pats[j])
		mask &^= 1 << uint(j)
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// greedyLookahead orders patterns by picking, at each step, the candidate
// minimizing its own cost plus the cheapest immediate follow-up — one step
// of lookahead on top of plain greedy, which avoids the classic trap of a
// cheap-now scan that unbinds nothing.
func greedyLookahead(cm *costModel, pats []int, boundCols uint64, inRows float64) []int {
	n := len(pats)
	remaining := append([]int(nil), pats...)
	order := make([]int, 0, n)
	rows := inRows
	bc := boundCols
	for len(remaining) > 0 {
		bestIdx := -1
		bestScore, bestSelf := math.Inf(1), stepEstimate{}
		for idx, p := range remaining {
			se := cm.step(p, rows, bc)
			score := se.cost
			if len(remaining) > 1 {
				nbc := bc | cm.patternCols(p)
				follow := math.Inf(1)
				for idx2, p2 := range remaining {
					if idx2 == idx {
						continue
					}
					if c := cm.step(p2, se.outRows, nbc).cost; c < follow {
						follow = c
					}
				}
				score += follow
			}
			if bestIdx < 0 || score < bestScore ||
				(score == bestScore && se.outRows < bestSelf.outRows) {
				bestIdx, bestScore, bestSelf = idx, score, se
			}
		}
		p := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		order = append(order, p)
		rows = bestSelf.outRows
		bc |= cm.patternCols(p)
	}
	return order
}

// attachFilters places each pushed-down filter on the earliest plan step
// after which every variable it mentions is bound — either outside the run
// (sureOutside) or by the scans executed so far. Filters whose variables
// are already bound before the run's first step attach to step 0 (they
// could not have been applied earlier or evalGroup would have done so).
func attachFilters(steps []planStep, run []*TriplePattern, filters []*runFilter, sureOutside map[string]bool) {
	for _, f := range filters {
		placed := false
		boundHere := map[string]bool{}
		for i := range steps {
			for v := range run[steps[i].pat].Vars {
				boundHere[v] = true
			}
			ok := true
			for v := range f.vars {
				if !sureOutside[v] && !boundHere[v] {
					ok = false
					break
				}
			}
			if ok {
				steps[i].filters = append(steps[i].filters, f)
				placed = true
				break
			}
		}
		if !placed {
			// Defensive: eligibility should guarantee placement; fall back to
			// the last step so the filter still applies within the run.
			last := len(steps) - 1
			steps[last].filters = append(steps[last].filters, f)
		}
	}
}

// colsFromVars maps a set of variable names to a bitmask over the run
// plan's variable columns (names outside the run are ignored).
func colsFromVars(rp *runPlan, vars map[string]bool) uint64 {
	if len(rp.vars) > 64 {
		return 0
	}
	var mask uint64
	for v := range vars {
		if idx, ok := rp.varIdx[v]; ok {
			mask |= 1 << uint(idx)
		}
	}
	return mask
}

// cloneVarSet copies a variable set (nil clones to an empty, writable set).
func cloneVarSet(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

// visitQueryVars calls fn for every textual variable reference of a SELECT
// query: triple-pattern positions, BIND targets, VALUES columns, projected
// names, every variable an expression mentions, EXISTS patterns included,
// and optionalVar per OPTIONAL. deep decides what a subquery contributes:
// its whole text (the reference count selectScope prunes single-use
// variables by — overcounting only keeps a variable alive) or just what it
// can bind in the enclosing scope, its projection.
func visitQueryVars(q *Query, deep bool, fn func(string)) {
	for _, it := range q.Select.Items {
		if it.Var != "" {
			fn(it.Var)
		}
	}
	if q.Where != nil {
		visitGroupVars(q.Where, deep, fn)
	}
	for _, gc := range q.GroupBy {
		if gc.Var != "" {
			fn(gc.Var)
		}
	}
	queryExprs(q, func(e Expr) {
		visitExprVars(e, fn, func(gp *GroupPattern) { visitGroupVars(gp, deep, fn) })
	})
}

// queryExprs calls fn for every expression of the query outside its WHERE
// pattern: SELECT, GROUP BY, HAVING and ORDER BY.
func queryExprs(q *Query, fn func(Expr)) {
	for _, it := range q.Select.Items {
		if it.Expr != nil {
			fn(it.Expr)
		}
	}
	for _, gc := range q.GroupBy {
		if gc.Expr != nil {
			fn(gc.Expr)
		}
	}
	for _, h := range q.Having {
		fn(h)
	}
	for _, oc := range q.OrderBy {
		fn(oc.Expr)
	}
}

func visitGroupVars(gp *GroupPattern, deep bool, fn func(string)) {
	expr := func(e Expr) { visitExprVars(e, fn, func(gp *GroupPattern) { visitGroupVars(gp, deep, fn) }) }
	for _, e := range gp.Elems {
		switch {
		case e.Triple != nil:
			for _, n := range [3]Node{e.Triple.S, e.Triple.P, e.Triple.O} {
				if n.IsVar() && n.Var != "" {
					fn(n.Var)
				}
			}
		case e.Filter != nil:
			expr(e.Filter)
		case e.Optional != nil:
			fn(optionalVar)
			visitGroupVars(e.Optional, deep, fn)
		case e.Union != nil:
			for _, alt := range e.Union.Alternatives {
				visitGroupVars(alt, deep, fn)
			}
		case e.Group != nil:
			visitGroupVars(e.Group, deep, fn)
		case e.Bind != nil:
			expr(e.Bind.Expr)
			fn(e.Bind.Var)
		case e.Values != nil:
			for _, v := range e.Values.Vars {
				fn(v)
			}
		case e.SubQuery != nil:
			if deep || e.SubQuery.Select.Star {
				visitQueryVars(e.SubQuery, deep, fn)
			} else {
				for _, it := range e.SubQuery.Select.Items {
					fn(it.Var)
				}
			}
		case e.Minus != nil:
			visitGroupVars(e.Minus, deep, fn)
		}
	}
}

// visitExprVars calls fn for every variable the expression mentions and
// exists (when non-nil) for the pattern of every EXISTS inside it.
func visitExprVars(e Expr, fn func(string), exists func(*GroupPattern)) {
	walkExpr(e, func(x Expr) bool {
		switch x := x.(type) {
		case ExprVar:
			fn(x.Name)
		case ExprExists:
			if exists != nil {
				exists(x.Pattern)
			}
		}
		return true
	})
}
