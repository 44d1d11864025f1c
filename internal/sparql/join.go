package sparql

import (
	"time"

	"rdfanalytics/internal/fault"
	"rdfanalytics/internal/rdf"
)

// BGP execution. A maximal run of consecutive triple patterns is compiled
// against the scope's slots (runPlan) and joined into the input batch
// pattern by pattern: rows go in and come out as the same flat ID rows every
// other operator uses — no Term hashing, nothing for the garbage collector
// to trace. The plan (plan.go) fixes the order of the patterns; each pattern
// picks its join strategy as it executes, from its constants-only match count
// and the live row count. A query runs on the goroutine that calls it.

const (
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
// calls it with the estimated one to price a step.
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
	pb, pbt := ev.profEnter("bgp", nil)
	out := ev.runTriples(run, filters, sureOutside, estBound, input, fold)
	n := out.n()
	if fold != nil {
		n = fold.rows
	}
	ev.profExit(pb, pbt, input.n(), n)
	return out
}

// runTriples plans the run and executes the plan step by step. A step reads
// its input from the blocks the step before it wrote, and hands them back
// once it is done; the first reads the caller's batch, which stays the
// caller's. Only the last step's rows are copied into a batch, or go to the
// fold. An aborted evaluation returns no rows.
func (ev *evaluator) runTriples(run []*TriplePattern, filters []*runFilter, sureOutside, estBound map[string]bool, rows *batch, into *groupFold) *batch {
	if rows.n() == 0 {
		return rows
	}
	rp := ev.planRun(run)
	if !rp.ok {
		return &batch{width: rows.width}
	}
	plan := ev.planBGP(rp, colsFromVars(rp, estBound), rows.n())
	attachFilters(plan, run, filters, sureOutside)
	in, owned := readRows(rows), false // owned: in is a step's output, no longer the caller's batch
	for si := range plan {
		if in.rows == 0 || ev.cancel.poll() {
			break
		}
		if err := fault.InjectCtx(ev.cancel.ctx, "sparql.join"); err != nil {
			ev.cancel.abort(err)
			break
		}
		step, last := &plan[si], si == len(plan)-1
		var fold *groupFold // the last step writes into it
		if last {
			fold = into
		}
		out := ev.evalPattern(run[step.pat], &rp.pats[step.pat], in, step, fold)
		if owned {
			in.release()
		}
		in, owned = out, true
		if last && !ev.cancel.aborted() {
			return in.batch()
		}
	}
	if owned {
		in.release()
	}
	return &batch{width: rows.width}
}

// applyFilter keeps the rows the expression holds for; rows whose expression
// errors or is false drop. It is a group-level filter's: the kept rows are
// copied, as evalGroup never modifies its input. (A filter the planner
// pushed inside a BGP run goes with its step's writes: stepFilter.)
func (ev *evaluator) applyFilter(expr *Expr, rows *batch) *batch {
	nIn := rows.n()
	pf, pft := ev.profEnter("filter", expr)
	env := exprEnv{ev: ev}
	w := rowWriter{width: rows.width}
	for r := 0; r < nIn; r++ {
		if r%pollEvery == 0 && ev.cancel.poll() {
			break
		}
		row := rows.row(r)
		if v, err := env.evalBool(*expr, row); err == nil && v {
			w.add(row)
		}
	}
	out := w.batch()
	ev.profExit(pf, pft, nIn, out.n())
	return out
}

// stepFilter is the in-run filters of one join step, applied to the rows the
// step writes: the step sieves them between the scans (or probes) of its
// input rows — a filter decodes terms, which a scan callback may not — once
// a block's worth waits, and at its end. pass[i] counts the rows that
// reached filters[i]; pass[len(filters)] the rows that passed them all.
// When the query is profiled, dur[i] sums the time filters[i] took.
type stepFilter struct {
	env     exprEnv
	filters []*runFilter
	pass    []int
	dur     []time.Duration // nil when not profiled
	from    int             // the first row written that has not been sieved
	cur     int             // the filter keep applies
}

// keep reports whether the current filter holds for the row.
func (sf *stepFilter) keep(row []rdf.ID) bool {
	v, err := sf.env.evalBool(*sf.filters[sf.cur].expr, row)
	return err == nil && v
}

// sieve applies the filters, one after the other, to the rows w holds that
// have not met them: all of them when all is set, else only once they fill
// a block.
func (sf *stepFilter) sieve(w *rowWriter, all bool) {
	if sf == nil || !all && w.rows-sf.from < max(1, rowBlockIDs/w.width) {
		return
	}
	for i := range sf.filters {
		if sf.from >= w.rows {
			break
		}
		sf.pass[i] += w.rows - sf.from
		var start time.Time
		if sf.dur != nil {
			start = time.Now()
		}
		sf.cur = i
		w.sieve(sf.from, sf.keep)
		if sf.dur != nil {
			sf.dur[i] += time.Since(start)
		}
	}
	sf.pass[len(sf.filters)] += w.rows - sf.from
	sf.from = w.rows
}

// evalPattern joins the current rows with one pattern. Variable boundness
// is classified over the full row set and the strategy chosen once. tp is
// the source pattern, used only to label the profile's scan node. The join
// type is decided here, from the live row count; the plan fixed only the
// order. The step's rows, its filters applied,
// are returned in the writer's blocks, or go to the fold, which leaves the
// writer empty.
func (ev *evaluator) evalPattern(tp *TriplePattern, pp *patPlan, in *rowWriter, step *planStep, fold *groupFold) *rowWriter {
	joinPos, freePos, mixed := pp.boundness(in)
	strategy := chooseStrategy(pp.baseEst, in.rows, len(joinPos), mixed)
	if ev.inBody && pp.ids == [3]rdf.ID{} && len(joinPos) == 1 && joinPos[0] == 1 {
		strategy = strategyNestedLoop // the build scans SPO, the loop POS
	}
	if strategy == strategyHashJoin && pp.probesDirectory(joinPos, in.rows) {
		strategy = strategyNestedLoop
	}
	psc, psct := ev.profEnter("scan", tp)
	// The scan's estimate is what the planner priced it with, the graph
	// count for the pattern's constant positions, so q-error measures the
	// planner's own input.
	ev.prof.addEst(pp.baseEst)
	ev.prof.setStrategy(strategy.String(), fold != nil)
	// Each pattern opens a fresh row-budget window: the budget caps the
	// size of any one intermediate row set, counted while this join produces.
	ev.cancel.resetRows()
	var sf *stepFilter
	if len(step.filters) > 0 {
		sf = &stepFilter{env: exprEnv{ev: ev}, filters: step.filters, pass: make([]int, len(step.filters)+1)}
		if ev.prof != nil {
			sf.dur = make([]time.Duration, len(step.filters))
		}
	}
	w := &rowWriter{width: in.width}
	if strategy == strategyHashJoin {
		ev.probeHashRun(pp, ev.buildHashRun(pp, joinPos, freePos), in, w, sf)
	} else {
		ev.nestedLoopRun(pp, in, w, sf)
	}
	sf.sieve(w, true)
	produced := w.rows
	if sf != nil {
		produced = sf.pass[0]
	}
	if fold != nil {
		for _, row := range w.all() {
			fold.add(row)
		}
		w.release()
	}
	var filtering time.Duration // the filters' time is theirs, not the scan's
	for i := 0; sf != nil && i < len(sf.dur); i++ {
		filtering += sf.dur[i]
	}
	ev.profExit(psc, psct.Add(filtering), in.rows, produced)
	// A filter node per filter that had rows to test, as when each filtered
	// a batch of its own; the fold's record every filter.
	for i := 0; sf != nil && i < len(sf.dur) && (fold != nil || sf.pass[i] > 0); i++ {
		ev.profAdd("filter", sf.filters[i].expr, sf.dur[i], sf.pass[i], sf.pass[i+1])
	}
	return w
}

// boundness classifies the pattern's variables over the input rows: joinPos
// and freePos hold the first position of each distinct variable that every
// row binds and that no row binds; mixed says some variable is bound in only
// part of the rows.
func (pp *patPlan) boundness(in *rowWriter) (joinPos, freePos []int, mixed bool) {
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
		for _, row := range in.all() {
			if row[idx] != 0 {
				bound++
			}
		}
		switch bound {
		case in.rows:
			joinPos = append(joinPos, i)
		case 0:
			freePos = append(freePos, i)
		default:
			mixed = true
		}
	}
	return joinPos, freePos, mixed
}

// probesDirectory reports whether a step sent to a hash join runs as an
// index loop instead: keyed by subject under a constant predicate, with no
// fewer matches than input rows. SPO's subject directory finds each row's
// run in one step, so the loop reads what the table would hold — per key in
// the same ascending object order — without building it. The cost model
// still prices the step as a build (cost.go).
func (pp *patPlan) probesDirectory(joinPos []int, inRows int) bool {
	return len(joinPos) > 0 && joinPos[0] == 0 && pp.ids[1] != 0 && pp.baseEst >= inRows
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

// probeBlock is how many input rows an index loop probes under one read
// lock (rdf.Graph.MatchIDsEach). The step's filters sieve between blocks:
// a filter decodes terms, which takes the lock again.
const probeBlock = 64

// nestedLoopRun evaluates the pattern with one ID index lookup per row:
// bound columns tighten the pattern to its most selective access path. It
// also covers mixed boundness (a variable bound in only part of the rows).
// Every match is written from inside the scan callback, which accounts it
// against the row budget and polls for cancellation: one row of an unselective
// pattern can match a large slice of the graph, and the scan stops where the
// budget does. The rows are probed a block at a time; the filters sieve the
// rows written between blocks.
func (ev *evaluator) nestedLoopRun(pp *patPlan, in, w *rowWriter, sf *stepFilter) {
	produced := 0 // rows written since the last budget flush
	scanned := 0
	stopped := false
	var rows [probeBlock][]rdf.ID
	var lookups [probeBlock][3]rdf.ID
	match := func(r int, s, p, o rdf.ID) bool {
		if scanned++; scanned%pollEvery == 0 && ev.cancel.poll() {
			stopped = true
			return false
		}
		m, lookup := [3]rdf.ID{s, p, o}, lookups[r]
		if pp.sameVarDiffers(lookup, m) {
			return true
		}
		out := w.add(rows[r])
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
	n := 0 // rows gathered for the next probe
	for _, row := range in.all() {
		if n == 0 && ev.cancel.poll() {
			return
		}
		rows[n], lookups[n] = row, pp.ids
		for i := 0; i < 3; i++ {
			if pp.slot[i] >= 0 {
				lookups[n][i] = row[pp.slot[i]]
			}
		}
		if n++; n < probeBlock {
			continue
		}
		ev.g.MatchIDsEach(lookups[:n], match)
		if n = 0; stopped {
			break
		}
		sf.sieve(w, false)
	}
	if n > 0 {
		ev.g.MatchIDsEach(lookups[:n], match)
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

// firstKeys is how many keys a build makes room for before its scan has
// seen what share of its matches bring a new key.
const firstKeys = 256

// buildHashRun scans the pattern once, chaining each match behind the last
// one with its join key. The pattern's count sizes the per-match arrays up
// front; the per-key ones start at firstKeys and grow as the keys come
// (grow), since a build keyed by a value many matches share holds far fewer
// keys than matches. A scan that finds more matches than the count (triples
// inserted since) grows by append.
func (ev *evaluator) buildHashRun(pp *patPlan, joinPos, freePos []int) *hashRun {
	nf, keyCap := len(freePos), min(pp.baseEst, firstKeys)
	ht := &hashRun{joinPos: joinPos, freePos: freePos, keys: newTupleIndex(len(joinPos), keyCap)}
	if nf == 0 {
		ht.count = make([]int32, 0, keyCap)
	} else {
		ht.free, ht.last, ht.next = make([]rdf.ID, 0, pp.baseEst*nf), make([]int32, 0, keyCap), make([]int32, 0, pp.baseEst)
	}
	scanned, matched := 0, 0
	ev.g.MatchIDs(pp.ids[0], pp.ids[1], pp.ids[2], func(s, p, o rdf.ID) bool {
		if scanned++; scanned%pollEvery == 0 && ev.cancel.poll() {
			return false
		}
		m := [3]rdf.ID{s, p, o}
		// Repeated variables must agree within one match.
		if pp.sameVarDiffers([3]rdf.ID{}, m) {
			return true
		}
		if ht.keys.count == keyCap {
			keyCap = ht.grow(matched, pp.baseEst)
		}
		matched++
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

// grow makes room in the full per-key arrays for the keys the whole scan
// will find, projected from the k found in its first matched of est matches:
// k·est/matched, an eighth more, at most est, and at least 2k. It returns
// the room made.
func (ht *hashRun) grow(matched, est int) int {
	k := ht.keys.count
	n := k * est / max(matched, 1)
	n = max(min(n+n/8, est), 2*k)
	ht.keys.reserve(n)
	if len(ht.freePos) == 0 {
		ht.count = append(make([]int32, 0, n), ht.count...)
	} else {
		ht.last = append(make([]int32, 0, n), ht.last...)
	}
	return n
}

// probeHashRun probes the table with each row's join-column IDs and extends
// the row with the free columns of every bucket match. A cross-product run
// lands here (every probe hits the full build side), so the inner loop
// accounts produced rows against the budget and polls for cancellation —
// this is where a pathological query dies early. The filters sieve the rows
// written between probes.
func (ev *evaluator) probeHashRun(pp *patPlan, ht *hashRun, in, w *rowWriter, sf *stepFilter) {
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
	for r, row := range in.all() {
		if r%64 == 0 && ev.cancel.poll() {
			return
		}
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
		sf.sieve(w, false)
	}
	ev.cancel.addRows(produced, ev.limits.MaxIntermediateRows)
}
