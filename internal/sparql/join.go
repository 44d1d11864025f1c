package sparql

import (
	"rdfanalytics/internal/fault"
	"rdfanalytics/internal/par"
	"rdfanalytics/internal/rdf"
)

// BGP execution. A maximal run of consecutive triple patterns is compiled
// against the scope's slots (runPlan) and joined into the input batch
// pattern by pattern: rows go in and come out as the same flat ID rows every
// other operator uses — no Term hashing, nothing for the garbage collector
// to trace. The plan (plan.go) fixes the order of the patterns; each pattern
// picks its join strategy as it executes, from its constants-only match count
// and the live row count, and row batches are partitioned across the worker
// pool with an order-preserving merge.

const (
	// parallelThreshold is the minimum row count before a pattern evaluation
	// is partitioned across workers: below it, goroutine and merge overhead
	// dominates and evaluation stays sequential.
	parallelThreshold = 64
	// hashJoinMinInput is the minimum input size for which building a hash
	// table can pay off at all.
	hashJoinMinInput = 8
	// hashBuildFactor bounds the build side: a hash join is chosen when the
	// pattern's match count is at most this multiple of the input size
	// (otherwise per-row index probes touch less data than one full scan).
	hashBuildFactor = 4
)

// joinStrategy names the per-pattern execution strategy.
type joinStrategy int

const (
	strategyNestedLoop joinStrategy = iota // per-row ID index lookups
	strategyHashJoin                       // build pattern matches, probe rows
)

func (s joinStrategy) String() string {
	if s == strategyHashJoin {
		return "hash join"
	}
	return "index loop"
}

// chooseStrategy is the one join-type rule: est is the pattern's match count
// with only constants bound, inputLen the number of input rows, nJoinVars how
// many pattern variables arrive bound, and mixed whether some variable is
// bound in only part of the input (which forces per-row handling). Execution
// calls it with the live row count of each step (evalPattern); the cost model
// calls it with the estimated one to price a step and to predict the strategy
// EXPLAIN prints. The choice never depends on the worker count, so output
// order is identical at every parallelism level.
func chooseStrategy[N int | float64](est, inputLen N, nJoinVars int, mixed bool) joinStrategy {
	if mixed || inputLen < hashJoinMinInput {
		return strategyNestedLoop
	}
	if nJoinVars == 0 {
		// Cross product: scan the pattern once instead of once per row.
		return strategyHashJoin
	}
	if est <= inputLen*hashBuildFactor {
		return strategyHashJoin
	}
	return strategyNestedLoop
}

// runPlan is the compiled form of one run of (non-path) triple patterns:
// the run's variable table — the columns the cost model's bitmasks range
// over — plus per-pattern constant IDs, planner columns and row slots.
type runPlan struct {
	vars   []string       // distinct variables, first-appearance order
	varIdx map[string]int // name -> planner column
	pats   []patPlan
	ok     bool // false: a constant term is absent from the dictionary
}

// patPlan is one pattern of a run.
type patPlan struct {
	ids [3]rdf.ID // constant IDs; 0 where the position holds a variable
	pos [3]int    // planner column per position; -1 where constant
	// slot is the row column per position; -1 where the position is a
	// constant or a variable without a slot, which matches anything and is
	// stored nowhere.
	slot    [3]int
	baseEst int // cached match count with constants only
}

// planRun compiles a run against the graph dictionary.
func (ev *evaluator) planRun(run []*TriplePattern) *runPlan {
	rp := &runPlan{varIdx: map[string]int{}, ok: true}
	for _, tp := range run {
		pp := patPlan{pos: [3]int{-1, -1, -1}, slot: [3]int{-1, -1, -1}}
		for i, n := range [3]Node{tp.S, tp.P, tp.O} {
			if n.IsVar() {
				idx, seen := rp.varIdx[n.Var]
				if !seen {
					idx = len(rp.vars)
					rp.varIdx[n.Var] = idx
					rp.vars = append(rp.vars, n.Var)
				}
				pp.pos[i] = idx
				pp.slot[i] = ev.sc.slot(n.Var)
				continue
			}
			id, known := ev.g.TermID(n.Term)
			if !known {
				rp.ok = false
				return rp
			}
			pp.ids[i] = id
		}
		pp.baseEst = ev.g.MatchCountIDs(pp.ids[0], pp.ids[1], pp.ids[2])
		rp.pats = append(rp.pats, pp)
	}
	return rp
}

// evalTripleRun joins the input rows with every pattern of the run and
// returns the extended rows. Output order is deterministic: input order
// crossed with the deterministic MatchIDs enumeration order per pattern.
// filters are the pushed-down filter expressions the plan places inside the
// run; sureOutside names the variables surely bound before the run, estBound
// the variables bound for estimation purposes. A fold takes the last step's rows.
func (ev *evaluator) evalTripleRun(run []*TriplePattern, filters []*runFilter, sureOutside, estBound map[string]bool, input *batch, fold *groupFold) *batch {
	bs := ev.enterSpan("bgp")
	if bs != nil {
		bs.SetAttr("patterns", len(run))
		bs.SetAttr("rows_in", input.n())
		bs.SetAttr("workers", ev.workers)
	}
	pb, pbt := ev.profEnter("bgp", "")
	out := ev.runTriples(run, filters, sureOutside, estBound, input, fold)
	n := out.n()
	if fold != nil {
		n = fold.rows
	}
	ev.profExit(pb, pbt, input.n(), n)
	if bs != nil {
		bs.SetAttr("rows_out", n)
	}
	ev.exitSpan(bs)
	return out
}

// runTriples plans the run and executes the plan step by step. An aborted
// evaluation returns no rows.
func (ev *evaluator) runTriples(run []*TriplePattern, filters []*runFilter, sureOutside, estBound map[string]bool, rows *batch, into *groupFold) *batch {
	if rows.n() == 0 {
		return rows
	}
	ps := ev.cur.StartChild("plan")
	rp := ev.planRun(run)
	if !rp.ok {
		ps.Finish()
		return &batch{width: rows.width}
	}
	boundCols := colsFromVars(rp, estBound)
	plan, cm := ev.planBGP(rp, run, boundCols, rows.n())
	attachFilters(plan, run, filters, sureOutside)
	if ps != nil {
		ps.SetAttr("order", plan.order())
		ps.SetAttr("cost", int(plan.cost))
		if plan.fbSeeded() {
			ps.SetAttr("feedback_seeded", true)
		}
		ps.Finish()
	}
	// sureRun accumulates the surely-bound variables as steps execute, for
	// re-placing pushed-down filters when the tail is re-planned.
	sureRun := cloneVarSet(sureOutside)
	for si := 0; si < len(plan.steps); si++ {
		if rows.n() == 0 || ev.cancel.poll() {
			break
		}
		if err := fault.InjectCtx(ev.cancel.ctx, "sparql.join"); err != nil {
			ev.cancel.abort(err)
			break
		}
		step := &plan.steps[si]
		var fold *groupFold // the last step writes into it, through its in-run filters
		if si == len(plan.steps)-1 && into != nil {
			fold, into.filters, into.pass = into, step.filters, make([]int, len(step.filters)+1)
		}
		rows = ev.evalPattern(run[step.pat], &rp.pats[step.pat], rows, step, fold)
		for i := 0; fold != nil && i < len(step.filters); i++ {
			pf, pft := ev.profEnter("filter", ev.profLabel(step.filters[i].expr))
			ev.profExit(pf, pft, fold.pass[i], fold.pass[i+1])
		}
		if fold != nil {
			break
		}
		scanOut := rows.n()
		for _, f := range step.filters {
			if rows.n() == 0 {
				break
			}
			rows = ev.applyFilter(f.expr, rows, true)
		}
		boundCols |= cm.patternCols(step.pat)
		for _, v := range run[step.pat].Vars() {
			sureRun[v] = true
		}
		// Adaptive re-planning: when the scan blew past its estimate by the
		// q-error factor and at least two patterns remain, re-order the tail
		// with the observed cardinality.
		if ev.replanFactor > 0 && !ev.inBody && len(plan.steps)-si-1 >= 2 &&
			scanOut >= replanMinRows &&
			float64(scanOut) > step.outRows*ev.replanFactor {
			replanTail(plan, cm, run, si, rows.n(), boundCols, sureRun)
		}
	}
	if plan.replans > 0 {
		ev.prof.addReplans(plan.replans)
	}
	if ev.cancel.aborted() {
		return &batch{width: rows.width}
	}
	return rows
}

// applyFilter keeps the rows the expression holds for; rows whose expression
// errors or is false drop. inRun marks a filter the planner pushed inside a
// BGP run (placement guarantees its variables are bound there): its input is
// the batch the step before it just produced, which the run owns, so the kept
// rows are compacted in place. A group-level filter copies them: evalGroup
// never modifies its input.
func (ev *evaluator) applyFilter(expr Expr, rows *batch, inRun bool) *batch {
	nIn := rows.n()
	fs := ev.cur.StartChild("filter")
	if fs != nil {
		fs.SetAttr("expr", expr.String())
		if inRun {
			fs.SetAttr("pushed", "in-run")
		}
		fs.SetAttr("rows_in", nIn)
	}
	pf, pft := ev.profEnter("filter", ev.profLabel(expr))
	env := exprEnv{ev: ev}
	w := rowWriter{width: rows.width}
	kept := 0 // in-run: rows compacted to the front so far
	for r := 0; r < nIn; r++ {
		if r%pollEvery == 0 && ev.cancel.poll() {
			break
		}
		row := rows.row(r)
		if v, err := env.evalBool(expr, row); err != nil || !v {
			continue
		}
		if inRun {
			copy(rows.row(kept), row)
			kept++
		} else {
			w.add(row)
		}
	}
	out := rows
	if inRun {
		rows.vals = rows.vals[:kept*rows.width]
	} else {
		out = w.batch()
	}
	ev.profExit(pf, pft, nIn, out.n())
	if fs != nil {
		fs.SetAttr("rows_out", out.n())
		fs.Finish()
	}
	return out
}

// evalPattern joins the current rows with one pattern. Variable boundness
// is classified over the full row set and the strategy chosen once; only
// the per-row work is partitioned, so the strategy (and output order) is
// independent of the worker count. tp is the source pattern, used only to
// label the trace span. The join type is decided here, from the live row
// count — the plan only predicted one from its estimate. step.card is the
// estimate the profile's q-error measures against — the feedback actual on a
// seeded scan, the graph count otherwise. A fold takes the rows instead.
func (ev *evaluator) evalPattern(tp *TriplePattern, pp *patPlan, rows *batch, step *planStep, fold *groupFold) *batch {
	nJoin, mixed := 0, false
	var joinPos, freePos []int // first pattern position of each distinct var
	seen := [3]bool{}
	for i := 0; i < 3; i++ {
		idx := pp.slot[i]
		if idx < 0 || seen[i] {
			continue
		}
		for j := i + 1; j < 3; j++ {
			if pp.slot[j] == idx {
				seen[j] = true
			}
		}
		bound := 0
		for r, n := 0, rows.n(); r < n; r++ {
			if rows.vals[r*rows.width+idx] != 0 {
				bound++
			}
		}
		switch bound {
		case rows.n():
			nJoin++
			joinPos = append(joinPos, i)
		case 0:
			freePos = append(freePos, i)
		default:
			mixed = true
		}
	}
	strategy := chooseStrategy(pp.baseEst, rows.n(), nJoin, mixed)
	if ev.inBody && pp.ids == [3]rdf.ID{} && len(joinPos) == 1 && joinPos[0] == 1 {
		strategy = strategyNestedLoop // the build scans SPO, the loop POS
	}
	ss := ev.cur.StartChild("scan")
	if ss != nil {
		ss.SetAttr("pattern", tp.String())
		ss.SetAttr("est", step.card)
		ss.SetAttr("strategy", strategy.String())
		ss.SetAttr("rows_in", rows.n())
		if step.fbSeeded {
			ss.SetAttr("feedback", true)
		}
	}
	psc, psct := ev.profEnter("scan", ev.profLabel(tp))
	// The scan's estimate is what the planner priced it with: the
	// graph count for the pattern's constant positions, or
	// the feedback-observed actual on a seeded scan — so q-error measures
	// the planner's own input either way.
	ev.prof.addEst(step.card)
	ev.prof.setStrategy(strategy.String(), fold != nil)
	ev.prof.setFbCtx(step.fbCtx)
	if step.fbSeeded {
		ev.prof.setFeedback()
	}
	// Each pattern opens a fresh row-budget window: the budget caps the
	// size of any one intermediate row set, counted live across the worker
	// partitions while this join produces.
	ev.cancel.resetRows()
	var ht *hashRun // nil: index loop
	if strategy == strategyHashJoin {
		ht = ev.buildHashRun(pp, joinPos, freePos)
	}
	out, produced := ev.runPartitioned(pp, ht, rows, fold)
	ev.profExit(psc, psct, rows.n(), produced)
	if ss != nil {
		ss.SetAttr("rows_out", produced)
		ss.Finish()
	}
	return out
}

// runPartitioned splits the rows into contiguous chunks, joins each with the
// pattern (concurrently when the batch is large enough) through a writer of
// its own — probing ht, or with one index lookup per row when there is none —
// and collects what the chunks wrote, in input order.
func (ev *evaluator) runPartitioned(pp *patPlan, ht *hashRun, rows *batch, fold *groupFold) (*batch, int) {
	n := rows.n()
	if ev.workers <= 1 || n < parallelThreshold {
		w := rowWriter{width: rows.width}
		ev.joinRange(pp, ht, rows, 0, n, &w)
		return collect(rows.width, fold, &w)
	}
	chunks := par.Chunks(n, ev.workers)
	parts := make([]*rowWriter, len(chunks))
	par.Do(len(chunks), ev.workers, func(i int) {
		// Allocated by the worker, so that two workers' writers share no cache line.
		parts[i] = &rowWriter{width: rows.width}
		ev.joinRange(pp, ht, rows, chunks[i][0], chunks[i][1], parts[i])
	})
	return collect(rows.width, fold, parts...)
}

// collect copies the rows the partitions wrote, in order, into one batch of
// exactly their number, or hands them to the fold; it says how many there were.
func collect(width int, fold *groupFold, parts ...*rowWriter) (*batch, int) {
	total := 0
	for _, p := range parts {
		total += p.rows
	}
	if fold != nil {
		for _, p := range parts {
			p.drainRows(fold.feed)
		}
		return &batch{width: width}, total
	}
	out := newBatch(width, total)
	for _, p := range parts {
		p.drainTo(out)
	}
	return out, total
}

// joinRange joins rows [lo, hi) with the pattern, writing to w.
func (ev *evaluator) joinRange(pp *patPlan, ht *hashRun, rows *batch, lo, hi int, w *rowWriter) {
	if ht != nil {
		ev.probeHashRun(pp, ht, rows, lo, hi, w)
	} else {
		ev.nestedLoopRun(pp, rows, lo, hi, w)
	}
}

// sameVarDiffers reports whether a match binds one variable of the pattern
// to two different IDs: positions i < j hold the same variable, the row
// leaves it free (lookup[i] == 0), and the match disagrees with itself.
func (pp *patPlan) sameVarDiffers(lookup, m [3]rdf.ID) bool {
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if pp.slot[i] >= 0 && pp.slot[i] == pp.slot[j] && lookup[i] == 0 && m[i] != m[j] {
				return true
			}
		}
	}
	return false
}

// nestedLoopRun evaluates the pattern with one ID index lookup per row:
// bound columns tighten the pattern to its most selective access path. It
// also covers mixed boundness (a variable bound in only part of the rows).
// Every match is written from inside the scan callback, which accounts it
// against the row budget and polls for cancellation: one row of an unselective
// pattern can match a large slice of the graph, and the scan stops where the
// budget does.
func (ev *evaluator) nestedLoopRun(pp *patPlan, rows *batch, lo, hi int, w *rowWriter) {
	produced := 0 // rows written since the last budget flush
	scanned := 0
	stopped := false
	var row []rdf.ID
	var lookup [3]rdf.ID
	match := func(s, p, o rdf.ID) bool {
		if scanned++; scanned%pollEvery == 0 && ev.cancel.poll() {
			stopped = true
			return false
		}
		m := [3]rdf.ID{s, p, o}
		if pp.sameVarDiffers(lookup, m) {
			return true
		}
		out := w.add(row)
		for i := 0; i < 3; i++ {
			if pp.slot[i] >= 0 && lookup[i] == 0 {
				out[pp.slot[i]] = m[i]
			}
		}
		if produced++; produced >= 256 {
			stopped = ev.cancel.addRows(produced, ev.limits.MaxIntermediateRows)
			produced = 0
		}
		return !stopped
	}
	for r := lo; r < hi && !stopped; r++ {
		if (r-lo)%64 == 0 && ev.cancel.aborted() {
			return
		}
		row = rows.row(r)
		lookup = pp.ids
		for i := 0; i < 3; i++ {
			if pp.slot[i] >= 0 {
				lookup[i] = row[pp.slot[i]]
			}
		}
		ev.g.MatchIDs(lookup[0], lookup[1], lookup[2], match)
	}
	ev.cancel.addRows(produced, ev.limits.MaxIntermediateRows)
}

// hashRun is the build side of a hash join: the pattern's matches (constants
// only), bucketed by their IDs at the join positions, keeping what a probe
// reads — IDs at the free positions, chained per bucket in MatchIDs' scan
// order, or with no free position just a count per bucket (a variable
// without a slot still repeats a row). Nothing is allocated per key.
type hashRun struct {
	// joinPos and freePos are the pattern positions (the first, of a repeated
	// variable) every input row binds and no input row binds.
	joinPos, freePos []int
	keys             *tupleIndex // join-key tuple -> bucket number
	free             []rdf.ID    // match i's free IDs are free[i*len(freePos):]
	// Bucket b is a circular chain through next: last[b] is its last match
	// and next[last[b]] its first. Without a free position, count[b] is all.
	last, next, count []int32
}

// buildHashRun scans the pattern once, chaining each match behind the last
// one with its join key. The pattern's count sizes everything up front; a
// scan that finds more (triples inserted since the count) grows by append.
func (ev *evaluator) buildHashRun(pp *patPlan, joinPos, freePos []int) *hashRun {
	nf := len(freePos)
	ht := &hashRun{joinPos: joinPos, freePos: freePos, keys: newTupleIndex(len(joinPos), pp.baseEst)}
	if nf == 0 {
		ht.count = make([]int32, 0, pp.baseEst)
	} else {
		ht.free, ht.last, ht.next = make([]rdf.ID, 0, pp.baseEst*nf), make([]int32, 0, pp.baseEst), make([]int32, 0, pp.baseEst)
	}
	scanned := 0
	ev.g.MatchIDs(pp.ids[0], pp.ids[1], pp.ids[2], func(s, p, o rdf.ID) bool {
		if scanned++; scanned%pollEvery == 0 && ev.cancel.poll() {
			return false
		}
		m := [3]rdf.ID{s, p, o}
		// Repeated variables must agree within one match.
		if pp.sameVarDiffers([3]rdf.ID{}, m) {
			return true
		}
		var key [3]rdf.ID
		for k, posI := range joinPos {
			key[k] = m[posI]
		}
		b, fresh := ht.keys.add(key[:len(joinPos)])
		if nf == 0 {
			if fresh {
				ht.count = append(ht.count, 0)
			}
			ht.count[b]++
			return true
		}
		i := int32(len(ht.next))
		for _, posI := range freePos {
			ht.free = append(ht.free, m[posI])
		}
		if fresh {
			ht.last = append(ht.last, i)
			ht.next = append(ht.next, i)
		} else {
			last := ht.last[b]
			ht.next = append(ht.next, ht.next[last])
			ht.next[last], ht.last[b] = i, i
		}
		return true
	})
	return ht
}

// probeHashRun probes the table with each row's join-column IDs and extends
// the row with the free columns of every bucket match. A cross-product run
// lands here (every probe hits the full build side), so the inner loop
// accounts produced rows against the budget and polls for cancellation —
// this is where a pathological query dies early.
func (ev *evaluator) probeHashRun(pp *patPlan, ht *hashRun, rows *batch, lo, hi int, w *rowWriter) {
	nf := len(ht.freePos)
	produced := 0
	emit := func() bool { // false: the budget or an abort stops the probe
		if produced++; produced < 256 {
			return true
		}
		stop := ev.cancel.addRows(produced, ev.limits.MaxIntermediateRows)
		produced = 0
		return !stop
	}
	for r := lo; r < hi; r++ {
		if (r-lo)%64 == 0 && ev.cancel.aborted() {
			return
		}
		row := rows.row(r)
		var key [3]rdf.ID
		for k, posI := range ht.joinPos {
			key[k] = row[pp.slot[posI]]
		}
		b := ht.keys.find(key[:len(ht.joinPos)])
		switch {
		case b < 0:
		case nf == 0:
			for k := ht.count[b]; k > 0; k-- {
				if w.add(row); !emit() {
					return
				}
			}
		default:
			last := ht.last[b]
			for i := ht.next[last]; ; i = ht.next[i] {
				out := w.add(row)
				for k, posI := range ht.freePos {
					out[pp.slot[posI]] = ht.free[int(i)*nf+k]
				}
				if !emit() {
					return
				}
				if i == last {
					break
				}
			}
		}
	}
	ev.cancel.addRows(produced, ev.limits.MaxIntermediateRows)
}
