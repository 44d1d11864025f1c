package sparql

import (
	"time"

	"rdfanalytics/internal/fault"
	"rdfanalytics/internal/rdf"
)

// BGP execution. A maximal run of consecutive triple patterns is compiled
// against the scope's slots (runPlan) and joined into the input batch pattern
// by pattern, as the flat ID rows every other operator uses: no Term hashing,
// nothing for the garbage collector to trace. The plan (plan.go) fixes the
// order; each pattern picks its join strategy as it executes, from its match
// count and the live rows. A query runs on the goroutine that calls it.

const (
	hashJoinMinInput = 8 // the fewest input rows a hash table can pay off for
	// hashBuildFactor bounds the build side: a hash join is chosen when the
	// pattern's match count is at most this multiple of the input size
	// (otherwise per-row index probes touch less data than one full scan).
	hashBuildFactor = 4
)

// joinStrategy names the per-pattern execution strategy.
type joinStrategy int

const (
	strategyNestedLoop   joinStrategy = iota // per-row ID index lookups
	strategyHashJoin                         // build pattern matches, probe rows
	strategyCrossProduct                     // scan the pattern once, replay it per row
)

func (s joinStrategy) String() string {
	return [...]string{"index loop", "hash join", "cross product"}[s]
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
		return strategyCrossProduct
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
	slot     [3]int
	baseEst  int    // cached match count with constants only
	distinct [3]int // a constant predicate's distinct subjects (at S) and objects (at O)
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
		pp.distinct[0], pp.distinct[2] = ev.g.DistinctIDs(pp.ids[1])
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
	// durs backs dur for a step of up to 4 filters, so that profiling
	// allocates nothing per step.
	durs [4]time.Duration
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

// evalPattern joins the current rows with one pattern, its join type chosen
// once from the live rows' boundness and count (the plan fixed only the order);
// tp labels the profile's scan node. The step's rows, its filters applied, are
// returned in the writer's blocks, or go to the fold, leaving the writer empty.
func (ev *evaluator) evalPattern(tp *TriplePattern, pp *patPlan, in *rowWriter, step *planStep, fold *groupFold) *rowWriter {
	joinPos, freePos, mixed := pp.boundness(in)
	strategy := chooseStrategy(pp.baseEst, in.rows, len(joinPos), mixed)
	if strategy == strategyHashJoin && (ev.inBody && pp.ids == [3]rdf.ID{} && len(joinPos) == 1 && joinPos[0] == 1 || ev.probes(pp, joinPos, in)) {
		strategy = strategyNestedLoop // in a body keyed by predicate alone, the build would scan SPO, the loop POS
	}
	psc, psct := ev.profEnter("scan", tp)
	// The estimate is the planner's: q-error measures its own input.
	ev.prof.addEst(pp.baseEst)
	ev.prof.setStrategy(strategy.String(), fold != nil)
	// The row budget caps each intermediate row set, counted as it is written.
	ev.cancel.resetRows()
	var sf *stepFilter
	if len(step.filters) > 0 {
		sf = &stepFilter{env: exprEnv{ev: ev}, filters: step.filters, pass: make([]int, len(step.filters)+1)}
		if n := len(step.filters); ev.prof != nil && n <= len(sf.durs) {
			sf.dur = sf.durs[:n]
		} else if ev.prof != nil {
			sf.dur = make([]time.Duration, n)
		}
	}
	w := &rowWriter{width: in.width}
	switch strategy {
	case strategyHashJoin:
		ev.probeHashRun(pp, ev.buildHashRun(pp, joinPos, freePos), in, w, sf)
	case strategyCrossProduct:
		ev.crossRun(pp, in, w, sf)
	default:
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

// probes reports whether a hash join step under a constant predicate runs as
// an index loop. Keyed by subject, it probes SPO's directory if it has no fewer
// matches than rows (with fewer, a cached table beats rows in no subject order).
// Keyed by object, it probes POS in sorted blocks if it writes at most twice its
// matches, sampled over up to probeBlock rows: the loop pays a callback per
// row written, the build a slot per match (BenchmarkClickScale's count-by-origin).
func (ev *evaluator) probes(pp *patPlan, joinPos []int, in *rowWriter) bool {
	if pp.ids[1] == 0 || joinPos[0] == 0 { // a hash join has a join variable
		return pp.ids[1] != 0 && pp.baseEst >= in.rows
	}
	every, sampled, matches := max(1, in.rows/probeBlock), 0, 0
	for r, row := range in.all() {
		if r%every == 0 {
			sampled, matches = sampled+1, matches+ev.g.MatchCountIDs(pp.ids[0], pp.ids[1], row[pp.slot[2]])
		}
	}
	return matches*in.rows <= 2*sampled*pp.baseEst
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

// probeBlock is how many input rows an index loop probes under one read lock
// (MatchIDsEach); filters sieve between blocks, as they take the lock again.
const probeBlock = 64

// nestedLoopRun evaluates the pattern with one ID index lookup per row, a
// block of rows at a time, mixed boundness included. Every match is written
// from inside the scan callback, which accounts it against the row budget and
// polls for cancellation, so the scan of an unselective row stops where the
// budget does. The filters sieve the rows written between blocks.
func (ev *evaluator) nestedLoopRun(pp *patPlan, in, w *rowWriter, sf *stepFilter) {
	produced, scanned, stopped := 0, 0, false // produced: rows written since the last budget flush
	rows, lookups := [probeBlock][]rdf.ID{}, [probeBlock][3]rdf.ID{}
	repeats := pp.slot[0] >= 0 && (pp.slot[0] == pp.slot[1] || pp.slot[0] == pp.slot[2]) || pp.slot[1] >= 0 && pp.slot[1] == pp.slot[2]
	match := func(r int, s, p, o rdf.ID) bool {
		if scanned++; scanned%pollEvery == 0 && ev.cancel.poll() {
			stopped = true
			return false
		}
		m, lookup := [3]rdf.ID{s, p, o}, lookups[r]
		if repeats && pp.sameVarDiffers(lookup, m) { // a variable named twice, bound apart
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
	for r, row := range in.all() {
		if n == 0 && ev.cancel.poll() {
			return
		}
		rows[n], lookups[n] = row, pp.ids
		for i := 0; i < 3; i++ {
			if pp.slot[i] >= 0 {
				lookups[n][i] = row[pp.slot[i]]
			}
		}
		if n++; n < probeBlock && r < in.rows-1 {
			continue
		}
		ev.g.MatchIDsEach(lookups[:n], match)
		if n = 0; stopped {
			break
		}
		sf.sieve(w, false)
	}
	ev.cancel.addRows(produced, ev.limits.MaxIntermediateRows)
}

// crossRun joins a step with no join variable: it scans the pattern once into
// a flat list (no key, chain or tupleIndex) and writes each row once per match.
func (ev *evaluator) crossRun(pp *patPlan, in, w *rowWriter, sf *stepFilter) {
	ids, matches, produced := []rdf.ID(nil), 0, 0 // ids: each match's IDs at the pattern's slots
	ev.g.MatchIDs(pp.ids[0], pp.ids[1], pp.ids[2], func(s, p, o rdf.ID) bool {
		if m := [3]rdf.ID{s, p, o}; !pp.sameVarDiffers([3]rdf.ID{}, m) {
			for i, slot := range pp.slot {
				if slot >= 0 {
					ids = append(ids, m[i])
				}
			}
			matches++
		}
		return matches%pollEvery != 0 || !ev.cancel.poll()
	})
	for r, row := range in.all() {
		if r%64 == 0 && ev.cancel.poll() {
			return
		}
		for at, k := 0, 0; at < matches; at++ {
			out := w.add(row)
			for _, slot := range pp.slot {
				if slot >= 0 {
					out[slot], k = ids[k], k+1
				}
			}
			if produced++; produced == 256 {
				if ev.cancel.addRows(produced, ev.limits.MaxIntermediateRows) {
					return
				}
				produced = 0
			}
		}
		sf.sieve(w, false)
	}
	ev.cancel.addRows(produced, ev.limits.MaxIntermediateRows)
}

// hashRun is the build side of a hash join: the pattern's matches bucketed by
// their IDs at the join positions, keeping what a probe reads — IDs at the free
// positions, chained per bucket in scan order, or with none just a count per
// bucket (a variable without a slot still repeats a row). Nothing per key.
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

// buildHashRun scans the pattern once, chaining each match behind the last one
// with its join key. The pattern's count sizes the per-match arrays, and the
// per-key ones when keyed by subject under a constant predicate (few matches
// share a key); other builds start those at 256 keys and double them.
func (ev *evaluator) buildHashRun(pp *patPlan, joinPos, freePos []int) *hashRun {
	nf, est, keyCap := len(freePos), pp.baseEst, min(pp.baseEst, 256)
	if len(joinPos) > 0 && joinPos[0] == 0 && pp.ids[1] != 0 {
		keyCap = est
	}
	ht := &hashRun{joinPos: joinPos, freePos: freePos, keys: newTupleIndex(len(joinPos), keyCap)}
	if nf == 0 {
		ht.count = make([]int32, 0, keyCap)
	} else {
		ht.free, ht.last, ht.next = make([]rdf.ID, 0, est*nf), make([]int32, 0, keyCap), make([]int32, 0, est)
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
// the row with the free columns of every bucket match. A key can match many
// rows, so the inner loop accounts produced rows against the budget and
// polls for cancellation. The filters sieve the rows written between probes.
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
