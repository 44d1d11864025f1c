package core

import (
	"encoding/json"
	"fmt"

	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/rdf"
)

// Session snapshots: the full interaction state — every level's click log
// and analytic selections — serialized as JSON, so a session can be
// bookmarked, shared and replayed against the same base graph. Nested
// levels are reconstructed by re-running the analytics that produced them.

// TermJSON is the wire form of an RDF term, in the interaction API's
// requests and in snapshots.
type TermJSON struct {
	Kind     string `json:"kind"` // iri | blank | literal
	Value    string `json:"value"`
	Datatype string `json:"datatype,omitempty"`
	Lang     string `json:"lang,omitempty"`
}

func termToJSON(t rdf.Term) TermJSON {
	j := TermJSON{Value: t.Value, Datatype: t.Datatype, Lang: t.Lang}
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

// Term decodes j; a missing kind is a literal, and a literal without a
// datatype or language is a plain string.
func (j TermJSON) Term() (rdf.Term, error) {
	switch j.Kind {
	case "iri":
		return rdf.NewIRI(j.Value), nil
	case "blank":
		return rdf.NewBlank(j.Value), nil
	case "literal", "":
		if j.Lang != "" {
			return rdf.NewLangString(j.Value, j.Lang), nil
		}
		if j.Datatype != "" {
			return rdf.NewTyped(j.Value, j.Datatype), nil
		}
		return rdf.NewString(j.Value), nil
	default:
		return rdf.Term{}, fmt.Errorf("core: unknown term kind %q", j.Kind)
	}
}

// StepJSON is the wire form of a facet path step.
type StepJSON struct {
	P       string `json:"p"`
	Inverse bool   `json:"inverse,omitempty"`
}

func pathToJSON(p facet.Path) []StepJSON {
	out := make([]StepJSON, len(p))
	for i, s := range p {
		out[i] = StepJSON{P: s.P.Value, Inverse: s.Inverse}
	}
	return out
}

// PathOf decodes the wire form of a facet path.
func PathOf(steps []StepJSON) facet.Path {
	out := make(facet.Path, len(steps))
	for i, s := range steps {
		out[i] = facet.PathStep{P: rdf.NewIRI(s.P), Inverse: s.Inverse}
	}
	return out
}

// termsOf decodes a list of wire terms.
func termsOf(js []TermJSON) ([]rdf.Term, error) {
	var out []rdf.Term
	for _, j := range js {
		t, err := j.Term()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// actionJSON is one logged faceted click.
type actionJSON struct {
	// Kind: class | value | valueset | range | pivot
	Kind   string     `json:"kind"`
	Class  string     `json:"class,omitempty"`
	Path   []StepJSON `json:"path,omitempty"`
	Op     string     `json:"op,omitempty"`
	Value  *TermJSON  `json:"value,omitempty"`
	Values []TermJSON `json:"values,omitempty"`
}

func (c click) toJSON() actionJSON {
	a := actionJSON{Kind: c.kind, Class: c.class.Value, Path: pathToJSON(c.path), Op: c.op}
	if c.kind == "valueset" {
		for _, v := range c.values {
			a.Values = append(a.Values, termToJSON(v))
		}
	} else if len(c.values) == 1 {
		v := termToJSON(c.values[0])
		a.Value = &v
	}
	return a
}

// click decodes a; the session checks what it decodes to.
func (a actionJSON) click() (click, error) {
	c := click{kind: a.Kind, path: PathOf(a.Path), op: a.Op}
	if a.Kind == "class" {
		c.class = rdf.NewIRI(a.Class)
	}
	js := a.Values
	if a.Value != nil {
		js = []TermJSON{*a.Value}
	}
	var err error
	c.values, err = termsOf(js)
	return c, err
}

type groupJSON struct {
	Path   []StepJSON `json:"path"`
	Derive string     `json:"derive,omitempty"`
}

type opJSON struct {
	Op            string    `json:"op"`
	Distinct      bool      `json:"distinct,omitempty"`
	RestrictOp    string    `json:"restrictOp,omitempty"`
	RestrictValue *TermJSON `json:"restrictValue,omitempty"`
}

type levelJSON struct {
	NS      string       `json:"ns"`
	Actions []actionJSON `json:"actions"`
	GroupBy []groupJSON  `json:"groupBy,omitempty"`
	Measure *groupJSON   `json:"measure,omitempty"`
	Ops     []opJSON     `json:"ops,omitempty"`
	Seed    []TermJSON   `json:"seed,omitempty"`
}

// SnapshotJSON is the serialized session.
type SnapshotJSON struct {
	Version int         `json:"version"`
	Levels  []levelJSON `json:"levels"`
}

// Snapshot serializes the session: each level's log and analytic selections.
func (s *Session) Snapshot() ([]byte, error) {
	snap := SnapshotJSON{Version: 1}
	for _, l := range s.levels {
		lj := levelJSON{NS: l.ns}
		for _, c := range l.log {
			lj.Actions = append(lj.Actions, c.toJSON())
		}
		for _, t := range l.origin.Seed {
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
// clicks are replayed through the session's own click methods, so the
// snapshot is refused where a click would be; nested levels re-run the outer
// analytics and reload the answer.
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
			seed, err := termsOf(lj.Seed)
			if err != nil {
				return nil, fmt.Errorf("core: seed: %w", err)
			}
			s = NewSessionFrom(base, lj.NS, seed)
		} else {
			// Descend: the previous level's analytics produce this dataset.
			if _, err := s.RunAnalytics(); err != nil {
				return nil, fmt.Errorf("core: level %d: re-running outer analytics: %w", li, err)
			}
			if err := s.LoadAnswerAsDataset(); err != nil {
				return nil, fmt.Errorf("core: level %d: %w", li, err)
			}
		}
		if err := s.restoreLevel(lj); err != nil {
			return nil, fmt.Errorf("core: level %d: %w", li, err)
		}
	}
	return s, nil
}

// restoreLevel replays lj's clicks and analytic selections at the top level.
func (s *Session) restoreLevel(lj levelJSON) error {
	for ai, a := range lj.Actions {
		c, err := a.click()
		if err == nil {
			err = s.click(c)
		}
		if err != nil {
			return fmt.Errorf("action %d: %w", ai, err)
		}
	}
	for _, g := range lj.GroupBy {
		if err := s.ClickGroupBy(GroupSpec{Path: PathOf(g.Path), Derive: g.Derive}); err != nil {
			return fmt.Errorf("group-by: %w", err)
		}
	}
	m := MeasureSpec{}
	if lj.Measure != nil {
		m = MeasureSpec{Path: PathOf(lj.Measure.Path), Derive: lj.Measure.Derive}
	}
	for _, oj := range lj.Ops {
		op := hifun.Operation{Op: hifun.AggOp(oj.Op), Distinct: oj.Distinct, RestrictOp: oj.RestrictOp}
		if oj.RestrictValue != nil {
			t, err := oj.RestrictValue.Term()
			if err != nil {
				return fmt.Errorf("aggregate: %w", err)
			}
			op.RestrictValue = t
		}
		if err := s.ClickAggregate(m, op); err != nil {
			return fmt.Errorf("aggregate: %w", err)
		}
	}
	return nil
}
