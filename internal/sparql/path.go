package sparql

import (
	"slices"

	"rdfanalytics/internal/fault"
	"rdfanalytics/internal/rdf"
)

// Property-path evaluation, in ID space like everything else. Paths are
// evaluated by node-set expansion: forward from bound subjects, backward
// from bound objects, and — when both ends are variables — from the
// candidate sources of the path's first step. Constant ends and predicates
// the graph has never seen carry scratch IDs, which match nothing but still
// relate to themselves under a zero-length path. Node sets are Go maps while
// they are built and emit in ascending ID order, so a path's solutions come
// in an order the content defines, like every scan's.

type idSet map[rdf.ID]struct{}

// sorted returns the set's members in ascending ID order.
func (s idSet) sorted() []rdf.ID {
	ids := make([]rdf.ID, 0, len(s))
	for id := range s {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func (ev *evaluator) evalPathTriple(tp *TriplePattern, input *batch) *batch {
	pp, ppt := ev.profEnter("path_scan", tp)
	// Each end is a constant, a slot, or (a variable nothing reads) neither.
	end := func(n Node) (slot int, constant rdf.ID) {
		if n.IsVar() {
			return ev.sc.slot(n.Var), 0
		}
		return -1, ev.dict.id(n.Term)
	}
	sSlot, sConst := end(tp.S)
	oSlot, oConst := end(tp.O)
	sameVar := tp.S.IsVar() && tp.O.IsVar() && tp.S.Var == tp.O.Var
	w := rowWriter{width: input.width}
	for i, n := 0, input.n(); i < n; i++ {
		if ev.cancel.poll() {
			break
		}
		if err := fault.InjectCtx(ev.cancel.ctx, "sparql.path"); err != nil {
			ev.cancel.abort(err)
			break
		}
		if ev.overBudget(w.rows) {
			break
		}
		row := input.row(i)
		s, o := sConst, oConst // 0: the end is free in this row
		if sSlot >= 0 {
			s = row[sSlot]
		}
		if oSlot >= 0 {
			o = row[oSlot]
		}
		// A variable end ranges over the nodes of the graph (SPARQL 1.1
		// §18.4), wherever it was bound: a value that is no subject or object
		// — a predicate, a VALUES or BIND term — is no path end, so the
		// answer does not depend on which pattern ran first. A constant end
		// relates to itself under a zero-length path, in the graph or not.
		if (sSlot >= 0 && s != 0 && !ev.isNode(s)) || (oSlot >= 0 && o != 0 && !ev.isNode(o)) {
			continue
		}
		emit := func(sID, oID rdf.ID) {
			if sameVar && s == 0 && sID != oID {
				return
			}
			out := w.add(row)
			if s == 0 && sSlot >= 0 {
				out[sSlot] = sID
			}
			if o == 0 && oSlot >= 0 {
				out[oSlot] = oID
			}
		}
		switch {
		case s != 0 && o != 0:
			if _, reached := ev.pathReach(tp.Path, s, false)[o]; reached {
				emit(s, o)
			}
		case s != 0:
			for _, oID := range ev.pathReach(tp.Path, s, false).sorted() {
				emit(s, oID)
			}
		case o != 0:
			for _, sID := range ev.pathReach(tp.Path, o, true).sorted() {
				emit(sID, o)
			}
		default:
			sources := idSet{}
			ev.collectSources(tp.Path, false, sources)
			for _, sID := range sources.sorted() {
				if ev.cancel.aborted() || ev.overBudget(w.rows) {
					break
				}
				for _, oID := range ev.pathReach(tp.Path, sID, false).sorted() {
					emit(sID, oID)
				}
			}
		}
	}
	out := w.batch()
	ev.profExit(pp, ppt, input.n(), out.n())
	return out
}

// isNode reports whether some triple has id as its subject or object.
func (ev *evaluator) isNode(id rdf.ID) bool {
	return ev.g.MatchCountIDs(id, 0, 0) > 0 || ev.g.MatchCountIDs(0, 0, id) > 0
}

// pathReach returns the distinct nodes reachable from n via the path, or
// (reverse) the nodes n is reachable from.
func (ev *evaluator) pathReach(p Path, n rdf.ID, reverse bool) idSet {
	set := idSet{}
	ev.pathStep(p, n, reverse, set)
	return set
}

// pathStep expands one path from node n (reverse=true walks the inverse
// direction) accumulating reached nodes into acc.
func (ev *evaluator) pathStep(p Path, n rdf.ID, reverse bool, acc idSet) {
	switch x := p.(type) {
	case PathIRI:
		if reverse {
			ev.g.MatchIDs(0, ev.dict.id(x.IRI), n, func(s, _, _ rdf.ID) bool {
				acc[s] = struct{}{}
				return true
			})
		} else {
			ev.g.MatchIDs(n, ev.dict.id(x.IRI), 0, func(_, _, o rdf.ID) bool {
				acc[o] = struct{}{}
				return true
			})
		}
	case PathInverse:
		ev.pathStep(x.Sub, n, !reverse, acc)
	case PathSeq:
		first, second := x.Left, x.Right
		if reverse {
			first, second = x.Right, x.Left
		}
		for m := range ev.pathReach(first, n, reverse) {
			ev.pathStep(second, m, reverse, acc)
		}
	case PathAlt:
		ev.pathStep(x.Left, n, reverse, acc)
		ev.pathStep(x.Right, n, reverse, acc)
	case PathMod:
		// BFS expansion with the sub-path as the edge relation. The search
		// is governed: depth and visited-set caps bound the worst case of
		// p*/p+ over cyclic or high-fanout graphs, and every level polls
		// for cancellation, so an unbounded path expansion is killable.
		maxDepth := ev.limits.pathDepth()
		maxVisited := ev.limits.pathVisited()
		frontier := []rdf.ID{n}
		// Under p+ the start node is reached only if a cycle leads back to it.
		visited := idSet{}
		depth := 0
		if x.Min == 0 {
			acc[n] = struct{}{}
			visited[n] = struct{}{}
		}
		for len(frontier) > 0 {
			if ev.cancel.poll() {
				return
			}
			if x.Max == 1 && depth >= 1 {
				break
			}
			if maxDepth > 0 && depth >= maxDepth {
				ev.cancel.abort(&BudgetError{Resource: "path_depth", Used: depth + 1, Limit: maxDepth})
				return
			}
			depth++
			next := idSet{}
			for _, f := range frontier {
				if ev.cancel.aborted() {
					return
				}
				ev.pathStep(x.Sub, f, reverse, next)
			}
			frontier = frontier[:0]
			for t := range next {
				if _, seen := visited[t]; seen {
					continue
				}
				visited[t] = struct{}{}
				if maxVisited > 0 && len(visited) > maxVisited {
					ev.cancel.abort(&BudgetError{Resource: "path_visited", Used: len(visited), Limit: maxVisited})
					return
				}
				if depth >= x.Min || x.Min == 0 {
					acc[t] = struct{}{}
				}
				frontier = append(frontier, t)
			}
		}
	}
}

// collectSources accumulates candidate starting nodes for a path whose
// subject is an unbound variable: the subjects (or objects, for inverse
// heads) of the path's first atomic step. For zero-length-capable paths
// every graph node is a candidate.
func (ev *evaluator) collectSources(p Path, reverse bool, acc idSet) {
	switch x := p.(type) {
	case PathIRI:
		ev.g.MatchIDs(0, ev.dict.id(x.IRI), 0, func(s, _, o rdf.ID) bool {
			if reverse {
				acc[o] = struct{}{}
			} else {
				acc[s] = struct{}{}
			}
			return true
		})
	case PathInverse:
		ev.collectSources(x.Sub, !reverse, acc)
	case PathSeq:
		if reverse {
			ev.collectSources(x.Right, reverse, acc)
		} else {
			ev.collectSources(x.Left, reverse, acc)
		}
	case PathAlt:
		ev.collectSources(x.Left, reverse, acc)
		ev.collectSources(x.Right, reverse, acc)
	case PathMod:
		if x.Min == 0 {
			// Zero-length paths relate every node of the graph to itself
			// (SPARQL 1.1 §18.4: every term used as subject or object,
			// literals included). The full scan polls for cancellation.
			scanned := 0
			ev.g.MatchIDs(0, 0, 0, func(s, _, o rdf.ID) bool {
				if scanned++; scanned%pollEvery == 0 && ev.cancel.poll() {
					return false
				}
				acc[s] = struct{}{}
				acc[o] = struct{}{}
				return true
			})
			return
		}
		ev.collectSources(x.Sub, reverse, acc)
	}
}
