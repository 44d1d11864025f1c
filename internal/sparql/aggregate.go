package sparql

import (
	"slices"
	"sort"
	"strings"

	"rdfanalytics/internal/rdf"
)

// groupRows is one group of a grouped query: the rows (by index into the
// ungrouped batch, in input order) sharing one GROUP BY key.
type groupRows struct {
	rows    *batch
	members []int32
}

// aggregate implements GROUP BY + aggregate evaluation: rows are partitioned
// by the ID tuple of the group conditions, every aggregate in the
// projection/HAVING/ORDER BY is computed per group, and HAVING prunes
// groups. It returns one *extended* solution per surviving group — the
// group's first row overlaid with the group-condition values, the
// SELECT-expression values and hidden precomputed values for any
// aggregate-bearing ORDER BY condition — plus the ORDER BY conditions
// rewritten to reference those hidden variables. Projection happens later
// (selectRows), after ORDER BY has seen the extended rows. Groups come out
// sorted by their N-Triples-rendered key: LIMIT without ORDER BY, the HIFUN
// path and stable-sort ties all observe that order.
func (ev *evaluator) aggregate(q *Query, rows *batch) (*batch, []OrderCond, error) {
	env := exprEnv{ev: ev}
	work := &batch{width: rows.width}
	nconds := len(q.GroupBy)
	// Per condition: the slot a plain variable is read from, and the slot
	// the key value is written to in the group's row (-1: none).
	from, to := make([]int, nconds), make([]int, nconds)
	for c, gc := range q.GroupBy {
		from[c], to[c] = ev.sc.slot(gc.Var), ev.sc.slot(groupCondName(c, gc))
	}
	// Partition: number the distinct key tuples. A huge GROUP BY is governed
	// the same way joins are: the partitioning loop polls for cancellation.
	groups := newTupleIndex(nconds, 0)
	key := make([]rdf.ID, nconds)
	gid := make([]int32, 0, rows.n())    // group of each kept row
	member := make([]int32, 0, rows.n()) // its row index
next:
	for i, n := 0, rows.n(); i < n; i++ {
		if i%pollEvery == 0 && ev.cancel.poll() {
			return work, nil, ev.cancel.cause()
		}
		row := rows.row(i)
		for c, gc := range q.GroupBy {
			switch {
			case gc.Expr != nil:
				v, err := env.evalExpr(gc.Expr, row)
				if err != nil {
					continue next // no key, no group
				}
				key[c] = ev.dict.id(v)
			case from[c] >= 0:
				key[c] = row[from[c]] // 0: grouped under the unbound key
			}
		}
		g, _ := groups.add(key)
		gid = append(gid, int32(g))
		member = append(member, int32(i))
	}
	// A grouped query with no GROUP BY and no rows still yields one group
	// (e.g. SELECT (COUNT(*) AS ?n) over an empty match).
	if nconds == 0 && groups.count == 0 {
		groups.add(nil)
	}
	// Bucket the kept rows by group, input order within a group.
	start, byGroup := bucketize(gid, groups.count)
	for i, k := range byGroup {
		byGroup[i] = member[k]
	}
	// Output order: groups sorted by the rendered key, built once per group.
	order := make([]int, groups.count)
	names := make([]string, groups.count)
	var sb strings.Builder
	for g := range order {
		order[g] = g
		sb.Reset()
		for _, id := range groups.tuple(g) {
			if id != 0 {
				sb.WriteString(ev.dict.term(id).String())
			}
			sb.WriteByte(0)
		}
		names[g] = sb.String()
	}
	sort.SliceStable(order, func(a, b int) bool { return names[order[a]] < names[order[b]] })
	// What each group computes: the SELECT expressions and, because ORDER BY
	// conditions that contain aggregates need the group's rows, which are
	// gone once grouping finishes, each such condition — into a hidden
	// variable the rewritten condition references.
	type cell struct {
		expr Expr
		slot int
	}
	var cells []cell
	for _, it := range q.Select.Items {
		if it.Expr != nil { // a bare variable is already in the representative
			cells = append(cells, cell{it.Expr, ev.sc.slot(it.Var)})
		}
	}
	conds := slices.Clone(q.OrderBy)
	for i, c := range conds {
		if HasAggregate(c.Expr) {
			conds[i].Expr = ExprVar{Name: hiddenOrderVar(i)}
			cells = append(cells, cell{c.Expr, ev.sc.slot(hiddenOrderVar(i))})
		}
	}
	// Extend each surviving group's representative row.
	work.vals = make([]rdf.ID, 0, groups.count*rows.width)
	rep := make([]rdf.ID, rows.width)
	// Aggregates evaluate over the group's rows, everything around them over
	// the representative row.
	grp := groupRows{rows: rows}
	genv := exprEnv{ev: ev, grp: &grp}
	for i, g := range order {
		if i%256 == 0 && ev.cancel.poll() {
			return work, nil, ev.cancel.cause()
		}
		grp.members = byGroup[start[g]:start[g+1]]
		// The representative carries the group's first row — variables
		// constant within the group keep their value — under the key values.
		clear(rep)
		if len(grp.members) > 0 {
			copy(rep, rows.row(int(grp.members[0])))
		}
		for c, id := range groups.tuple(g) {
			if to[c] >= 0 && id != 0 {
				rep[to[c]] = id
			}
		}
		keep := true
		for _, h := range q.Having {
			if ok, err := genv.evalBool(h, rep); err != nil || !ok {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		base := len(work.vals)
		work.vals = append(work.vals, rep...)
		out := work.vals[base:]
		for _, c := range cells {
			// An erroring aggregate (e.g. MIN over an empty group, §18.5)
			// leaves the cell unbound — it must not shadow a same-named
			// representative variable.
			out[c.slot] = 0
			if v, err := genv.evalExpr(c.expr, rep); err == nil {
				out[c.slot] = ev.dict.id(v)
			}
		}
	}
	return work, conds, nil
}

func groupCondName(i int, gc GroupCond) string {
	if gc.Var != "" {
		return gc.Var
	}
	// Derived group expressions like month(?x2) get a stable readable name.
	if call, ok := gc.Expr.(ExprCall); ok {
		base := strings.ToLower(call.Func)
		if j := strings.LastIndexAny(base, "#/"); j >= 0 {
			base = base[j+1:]
		}
		if len(call.Args) == 1 {
			if v, ok := call.Args[0].(ExprVar); ok {
				return base + "_" + v.Name
			}
		}
		return base
	}
	return ""
}

// aggValues folds over the aggregate's argument column: fn sees, in row
// order, the value of every row of the group that has one (unbound and
// erroring rows are skipped, §18.5), once per distinct value under DISTINCT.
// A plain-variable argument is read as an ID and decoded only when
// wantTerms; equal terms have equal IDs, so DISTINCT is an ID set.
func (ev *evaluator) aggValues(agg ExprAggregate, grp groupRows, wantTerms bool, fn func(rdf.Term)) {
	env := exprEnv{ev: ev}
	slot, isVar := -1, false
	if v, ok := agg.Arg.(ExprVar); ok {
		slot, isVar = ev.sc.slot(v.Name), true
	}
	var seen *tupleIndex
	if agg.Distinct {
		seen = newTupleIndex(1, 0)
	}
	var key [1]rdf.ID
	for _, r := range grp.members {
		row := grp.rows.row(int(r))
		var t rdf.Term
		if isVar {
			if slot < 0 || row[slot] == 0 {
				continue
			}
			key[0] = row[slot]
		} else {
			v, err := env.evalExpr(agg.Arg, row)
			if err != nil {
				continue
			}
			if t = v; seen != nil {
				key[0] = ev.dict.id(v)
			}
		}
		if seen != nil {
			if _, fresh := seen.add(key[:]); !fresh {
				continue
			}
		}
		if isVar && wantTerms {
			t = ev.dict.term(key[0])
		}
		fn(t)
	}
}

// computeAggregate evaluates one aggregate over the group's rows.
func (ev *evaluator) computeAggregate(agg ExprAggregate, grp groupRows) (rdf.Term, error) {
	if agg.Star {
		if agg.Func != "COUNT" {
			return rdf.Term{}, evalErrf("%s(*) is not defined", agg.Func)
		}
		n := len(grp.members)
		if agg.Distinct {
			// The number of distinct solutions (§18.5.1.2): distinct ID rows.
			seen := newTupleIndex(grp.rows.width, n)
			for _, r := range grp.members {
				seen.add(grp.rows.row(int(r)))
			}
			n = seen.count
		}
		return rdf.NewInteger(int64(n)), nil
	}
	switch agg.Func {
	case "COUNT":
		n := 0
		ev.aggValues(agg, grp, false, func(rdf.Term) { n++ })
		return rdf.NewInteger(int64(n)), nil
	case "SUM":
		// All-integer groups accumulate in int64: going through float64 and
		// casting back silently loses precision past 2^53. The accumulator
		// switches to float64 only when a non-integer value appears (numeric
		// promotion to xsd:decimal, §18.5.1.3).
		var isum int64
		fsum := 0.0
		allInt := true
		var bad rdf.Term // first non-numeric value
		ev.aggValues(agg, grp, true, func(v rdf.Term) {
			f, ok := v.Float()
			if !ok {
				if bad.IsZero() {
					bad = v
				}
				return
			}
			if allInt && v.Datatype == rdf.XSDInteger {
				if i, okI := v.Int(); okI {
					isum += i
					return
				}
			}
			if allInt {
				allInt = false
				fsum = float64(isum)
			}
			fsum += f
		})
		if !bad.IsZero() {
			return rdf.Term{}, evalErrf("SUM over non-numeric %s", bad)
		}
		if allInt {
			return rdf.NewInteger(isum), nil
		}
		return rdf.NewDecimal(fsum), nil
	case "AVG":
		sum, n := 0.0, 0
		var bad rdf.Term // first non-numeric value
		ev.aggValues(agg, grp, true, func(v rdf.Term) {
			f, ok := v.Float()
			if !ok && bad.IsZero() {
				bad = v
			}
			sum += f
			n++
		})
		if !bad.IsZero() {
			return rdf.Term{}, evalErrf("AVG over non-numeric %s", bad)
		}
		if n == 0 {
			return rdf.NewInteger(0), nil
		}
		return rdf.NewDecimal(sum / float64(n)), nil
	case "MIN", "MAX":
		var best rdf.Term
		n := 0
		ev.aggValues(agg, grp, true, func(v rdf.Term) {
			if n++; n == 1 {
				best = v
				return
			}
			c, err := compareTerms(v, best)
			if err != nil {
				// fall back to term order for mixed types
				if v.Less(best) {
					c = -1
				} else {
					c = 1
				}
			}
			if (agg.Func == "MIN" && c < 0) || (agg.Func == "MAX" && c > 0) {
				best = v
			}
		})
		if n == 0 {
			// Per §18.5 the aggregate errors on an empty group; callers map
			// the wrapped errEval to an unbound cell (aggregate), never to a
			// query-level failure.
			return rdf.Term{}, evalErrf("%s of empty group", agg.Func)
		}
		return best, nil
	case "SAMPLE":
		var first rdf.Term
		n := 0
		ev.aggValues(agg, grp, true, func(v rdf.Term) {
			if n++; n == 1 {
				first = v
			}
		})
		if n == 0 {
			return rdf.Term{}, evalErrf("SAMPLE of empty group")
		}
		return first, nil
	case "GROUP_CONCAT":
		sep := agg.Separator
		if sep == "" {
			sep = " "
		}
		var sb strings.Builder
		n := 0
		ev.aggValues(agg, grp, true, func(v rdf.Term) {
			if n++; n > 1 {
				sb.WriteString(sep)
			}
			sb.WriteString(v.Value)
		})
		return rdf.NewString(sb.String()), nil
	default:
		return rdf.Term{}, evalErrf("unknown aggregate %s", agg.Func)
	}
}
