package core

import (
	"encoding/json"
	"fmt"

	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/rdf"
)

// Session snapshots: the full interaction state — every level's click
// history and analytic selections — serialized as JSON, so a session can be
// bookmarked, shared and replayed against the same base graph. Nested
// levels are reconstructed by re-running the analytics that produced them.

type termJSON struct {
	Kind     string `json:"kind"`
	Value    string `json:"value"`
	Datatype string `json:"datatype,omitempty"`
	Lang     string `json:"lang,omitempty"`
}

func termToJSON(t rdf.Term) termJSON {
	j := termJSON{Value: t.Value, Datatype: t.Datatype, Lang: t.Lang}
	switch t.Kind {
	case rdf.KindIRI:
		j.Kind = "iri"
	case rdf.KindBlank:
		j.Kind = "blank"
	default:
		j.Kind = "literal"
	}
	return j
}

func termFromJSON(j termJSON) rdf.Term {
	switch j.Kind {
	case "iri":
		return rdf.NewIRI(j.Value)
	case "blank":
		return rdf.NewBlank(j.Value)
	default:
		return rdf.Term{Kind: rdf.KindLiteral, Value: j.Value, Datatype: j.Datatype, Lang: j.Lang}
	}
}

type stepJSON struct {
	P       string `json:"p"`
	Inverse bool   `json:"inverse,omitempty"`
}

func pathToJSON(p facet.Path) []stepJSON {
	out := make([]stepJSON, len(p))
	for i, s := range p {
		out[i] = stepJSON{P: s.P.Value, Inverse: s.Inverse}
	}
	return out
}

func pathFromJSON(steps []stepJSON) facet.Path {
	out := make(facet.Path, len(steps))
	for i, s := range steps {
		out[i] = facet.PathStep{P: rdf.NewIRI(s.P), Inverse: s.Inverse}
	}
	return out
}

// actionJSON is one replayable interaction step.
type actionJSON struct {
	// Kind: class | value | valueset | range | pivot
	Kind   string     `json:"kind"`
	Class  string     `json:"class,omitempty"`
	Path   []stepJSON `json:"path,omitempty"`
	Op     string     `json:"op,omitempty"`
	Value  *termJSON  `json:"value,omitempty"`
	Values []termJSON `json:"values,omitempty"`
}

type groupJSON struct {
	Path   []stepJSON `json:"path"`
	Derive string     `json:"derive,omitempty"`
}

type opJSON struct {
	Op            string    `json:"op"`
	Distinct      bool      `json:"distinct,omitempty"`
	RestrictOp    string    `json:"restrictOp,omitempty"`
	RestrictValue *termJSON `json:"restrictValue,omitempty"`
}

type levelJSON struct {
	NS      string       `json:"ns"`
	Actions []actionJSON `json:"actions"`
	GroupBy []groupJSON  `json:"groupBy,omitempty"`
	Measure *groupJSON   `json:"measure,omitempty"`
	Ops     []opJSON     `json:"ops,omitempty"`
	Seed    []termJSON   `json:"seed,omitempty"`
}

// SnapshotJSON is the serialized session.
type SnapshotJSON struct {
	Version int         `json:"version"`
	Levels  []levelJSON `json:"levels"`
}

// Because sessions only record resulting states, the replayable action list
// is tracked alongside the history.
type actionLog struct {
	actions []actionJSON
}

// Snapshot serializes the session. It relies on the per-level action logs
// the Session records for every click.
func (s *Session) Snapshot() ([]byte, error) {
	snap := SnapshotJSON{Version: 1}
	for _, l := range s.levels {
		lj := levelJSON{NS: l.ns, Actions: l.log.actions}
		start := l.history[0]
		for _, t := range start.Int.Seed {
			lj.Seed = append(lj.Seed, termToJSON(t))
		}
		for _, g := range l.analytics.GroupBy {
			lj.GroupBy = append(lj.GroupBy, groupJSON{Path: pathToJSON(g.Path), Derive: g.Derive})
		}
		if len(l.analytics.Measure.Path) > 0 || l.analytics.Measure.Derive != "" {
			lj.Measure = &groupJSON{Path: pathToJSON(l.analytics.Measure.Path), Derive: l.analytics.Measure.Derive}
		}
		for _, op := range l.analytics.Ops {
			oj := opJSON{Op: string(op.Op), Distinct: op.Distinct, RestrictOp: op.RestrictOp}
			if op.RestrictOp != "" {
				t := termToJSON(op.RestrictValue)
				oj.RestrictValue = &t
			}
			lj.Ops = append(lj.Ops, oj)
		}
		snap.Levels = append(snap.Levels, lj)
	}
	return json.MarshalIndent(snap, "", "  ")
}

// RestoreSession rebuilds a session over base from a snapshot: each level's
// actions are replayed; nested levels re-run the outer analytics and reload
// the answer.
func RestoreSession(base *rdf.Graph, data []byte) (*Session, error) {
	var snap SnapshotJSON
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("core: bad snapshot: %w", err)
	}
	if snap.Version != 1 {
		return nil, fmt.Errorf("core: unsupported snapshot version %d", snap.Version)
	}
	if len(snap.Levels) == 0 {
		return nil, fmt.Errorf("core: empty snapshot")
	}
	var s *Session
	for li, lj := range snap.Levels {
		if li == 0 {
			if len(lj.Seed) > 0 {
				seed := make([]rdf.Term, len(lj.Seed))
				for i, t := range lj.Seed {
					seed[i] = termFromJSON(t)
				}
				s = NewSessionFrom(base, lj.NS, seed)
			} else {
				s = NewSession(base, lj.NS)
			}
		} else {
			// Descend: the previous level's analytics produce this dataset.
			if _, err := s.RunAnalytics(); err != nil {
				return nil, fmt.Errorf("core: level %d: re-running outer analytics: %w", li, err)
			}
			if err := s.LoadAnswerAsDataset(); err != nil {
				return nil, fmt.Errorf("core: level %d: %w", li, err)
			}
		}
		for ai, a := range lj.Actions {
			if err := s.replay(a); err != nil {
				return nil, fmt.Errorf("core: level %d action %d: %w", li, ai, err)
			}
		}
		for _, g := range lj.GroupBy {
			spec := GroupSpec{Path: pathFromJSON(g.Path), Derive: g.Derive}
			if err := spec.Check(); err != nil {
				return nil, fmt.Errorf("core: level %d group-by: %w", li, err)
			}
			s.ClickGroupBy(spec)
		}
		m := MeasureSpec{}
		if lj.Measure != nil {
			m = MeasureSpec{Path: pathFromJSON(lj.Measure.Path), Derive: lj.Measure.Derive}
		}
		if err := m.Check(); err != nil {
			return nil, fmt.Errorf("core: level %d measure: %w", li, err)
		}
		for _, oj := range lj.Ops {
			op := hifun.Operation{Op: hifun.AggOp(oj.Op), Distinct: oj.Distinct, RestrictOp: oj.RestrictOp}
			if oj.RestrictValue != nil {
				op.RestrictValue = termFromJSON(*oj.RestrictValue)
			}
			s.ClickAggregate(m, op)
		}
	}
	return s, nil
}

func (s *Session) replay(a actionJSON) error {
	p := pathFromJSON(a.Path)
	switch a.Kind {
	case "value", "valueset", "range":
		if err := facet.CheckPath(p); err != nil {
			return fmt.Errorf("%s action: %w", a.Kind, err)
		}
	case "pivot":
		if len(p) != 1 {
			return fmt.Errorf("pivot action needs exactly one step")
		}
		if err := facet.CheckPath(p); err != nil {
			return fmt.Errorf("pivot action: %w", err)
		}
	}
	switch a.Kind {
	case "class":
		if a.Class == "" {
			return fmt.Errorf("class action without class")
		}
		s.ClickClass(rdf.NewIRI(a.Class))
	case "value":
		if a.Value == nil {
			return fmt.Errorf("value action without value")
		}
		s.ClickValue(p, termFromJSON(*a.Value))
	case "valueset":
		vs := make([]rdf.Term, len(a.Values))
		for i, v := range a.Values {
			vs[i] = termFromJSON(v)
		}
		s.ClickValueSet(p, vs)
	case "range":
		if a.Value == nil {
			return fmt.Errorf("range action without value")
		}
		if !facet.ValidRangeOp(a.Op) {
			return fmt.Errorf("range action with unknown operator %q", a.Op)
		}
		s.ClickRange(p, a.Op, termFromJSON(*a.Value))
	case "pivot":
		s.SwitchFocus(p[0])
	default:
		return fmt.Errorf("unknown action kind %q", a.Kind)
	}
	return nil
}
