package core

import (
	"errors"
	"fmt"
	"strings"

	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/rdf"
)

// Chapter 7 — the OLAP operators the model supports (Fig 7.1): roll-up,
// drill-down, slice and dice map to interaction-model actions and re-run the
// analytic query; pivot is a pure transformation of the answer table.

// RollUp coarsens the analysis by removing the i-th grouping attribute
// (e.g. from (branch, product) to (branch)) and re-runs the query —
// Fig 7.2's upward direction. In the dimension-hierarchy reading, removing
// the tail of an expanded path (origin from manufacturer/origin) also rolls
// up; that is expressed by replacing the GroupSpec.
func (s *Session) RollUp(i int) (*hifun.Answer, error) {
	l := s.top()
	if i < 0 || i >= len(l.analytics.GroupBy) {
		return nil, fmt.Errorf("core: no grouping attribute %d", i)
	}
	l.analytics.GroupBy = append(l.analytics.GroupBy[:i:i], l.analytics.GroupBy[i+1:]...)
	return s.RunAnalytics()
}

// RollUpPath shortens a grouping path by one hop: grouping by
// manufacturer/origin becomes grouping by manufacturer (climbing the
// dimension hierarchy).
func (s *Session) RollUpPath(i int) (*hifun.Answer, error) {
	l := s.top()
	if i < 0 || i >= len(l.analytics.GroupBy) {
		return nil, fmt.Errorf("core: no grouping attribute %d", i)
	}
	g := l.analytics.GroupBy[i]
	if len(g.Path) <= 1 {
		return nil, errors.New("core: path has no coarser level")
	}
	l.analytics.GroupBy[i] = GroupSpec{Path: g.Path[:len(g.Path)-1], Derive: g.Derive}
	return s.RunAnalytics()
}

// DrillDown refines the analysis by adding a grouping attribute — Fig 7.2's
// downward direction.
func (s *Session) DrillDown(spec GroupSpec) (*hifun.Answer, error) {
	if err := (&click{kind: "group", path: spec.Path, derive: spec.Derive}).check(); err != nil {
		return nil, err
	}
	l := s.top()
	l.analytics.GroupBy = append(l.analytics.GroupBy, spec)
	return s.RunAnalytics()
}

// DrillDownPath extends the i-th grouping path by one hop (descending the
// dimension hierarchy, e.g. manufacturer -> manufacturer/origin).
func (s *Session) DrillDownPath(i int, step facet.PathStep) (*hifun.Answer, error) {
	l := s.top()
	if i < 0 || i >= len(l.analytics.GroupBy) {
		return nil, fmt.Errorf("core: no grouping attribute %d", i)
	}
	g := l.analytics.GroupBy[i]
	l.analytics.GroupBy[i] = GroupSpec{Path: append(append(facet.Path{}, g.Path...), step), Derive: g.Derive}
	return s.RunAnalytics()
}

// Slice fixes one dimension to a single value (a faceted click) and removes
// it from the grouping, then re-runs: the OLAP slice.
func (s *Session) Slice(path facet.Path, v rdf.Term) (*hifun.Answer, error) {
	if err := s.ClickValue(path, v); err != nil {
		return nil, err
	}
	l := s.top()
	for i, g := range l.analytics.GroupBy {
		if g.Path.Equal(path) {
			l.analytics.GroupBy = append(l.analytics.GroupBy[:i:i], l.analytics.GroupBy[i+1:]...)
			break
		}
	}
	return s.RunAnalytics()
}

// Dice restricts a dimension to a value set (multi-select click), keeping
// the dimension in the grouping: the OLAP dice.
func (s *Session) Dice(path facet.Path, vs []rdf.Term) (*hifun.Answer, error) {
	if err := s.ClickValueSet(path, vs); err != nil {
		return nil, err
	}
	return s.RunAnalytics()
}

// PivotTable is a 2-dimensional cross-tabulation of an answer.
type PivotTable struct {
	RowDim, ColDim string
	Rows           []rdf.Term
	Cols           []rdf.Term
	// Cells[i][j] is the measure for (Rows[i], Cols[j]); zero Term = empty.
	Cells [][]rdf.Term
}

// Pivot cross-tabulates a two-dimensional answer: the first grouping column
// becomes rows, the second becomes columns (swap to pivot the other way).
// measureIdx selects the measure column when several operations ran.
func Pivot(a *hifun.Answer, swap bool, measureIdx int) (*PivotTable, error) {
	if len(a.GroupCols) != 2 {
		return nil, fmt.Errorf("core: pivot needs exactly 2 grouping columns, have %d", len(a.GroupCols))
	}
	if measureIdx < 0 || measureIdx >= len(a.MeasureCols) {
		return nil, fmt.Errorf("core: no measure column %d", measureIdx)
	}
	ri, ci := 0, 1
	if swap {
		ri, ci = 1, 0
	}
	pt := &PivotTable{RowDim: a.GroupCols[ri], ColDim: a.GroupCols[ci]}
	rowSet := map[rdf.Term]int{}
	colSet := map[rdf.Term]int{}
	rows := a.Rows()
	for _, row := range rows {
		if _, ok := rowSet[row[ri]]; !ok {
			rowSet[row[ri]] = 0
			pt.Rows = append(pt.Rows, row[ri])
		}
		if _, ok := colSet[row[ci]]; !ok {
			colSet[row[ci]] = 0
			pt.Cols = append(pt.Cols, row[ci])
		}
	}
	rdf.SortTerms(pt.Rows)
	rdf.SortTerms(pt.Cols)
	for i, r := range pt.Rows {
		rowSet[r] = i
	}
	for j, c := range pt.Cols {
		colSet[c] = j
	}
	pt.Cells = make([][]rdf.Term, len(pt.Rows))
	for i := range pt.Cells {
		pt.Cells[i] = make([]rdf.Term, len(pt.Cols))
	}
	mi := len(a.GroupCols) + measureIdx
	for _, row := range rows {
		pt.Cells[rowSet[row[ri]]][colSet[row[ci]]] = row[mi]
	}
	return pt, nil
}

// String renders the pivot table.
func (pt *PivotTable) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s \\ %s", pt.RowDim, pt.ColDim)
	for _, c := range pt.Cols {
		fmt.Fprintf(&sb, "\t%s", c.LocalName())
	}
	sb.WriteByte('\n')
	for i, r := range pt.Rows {
		sb.WriteString(r.LocalName())
		for j := range pt.Cols {
			v := ""
			if !pt.Cells[i][j].IsZero() {
				v = pt.Cells[i][j].LocalName()
			}
			fmt.Fprintf(&sb, "\t%s", v)
		}
		_ = i
		sb.WriteByte('\n')
	}
	return sb.String()
}
