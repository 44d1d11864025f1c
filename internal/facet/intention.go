// Package facet implements the core model for Faceted Search over RDF of
// Tzitzikas et al. [114], the substrate the paper extends (Chapter 5): the
// state space of the interaction (states with an extension and an
// intention), the Restrict/Joins operators of §5.3.1, class-based and
// property-based transition markers with count information, path expansion
// per Eq. 5.1, and the two evaluation strategies of §5.5 — in-memory
// set-based (Table 5.1) and SPARQL-only (Table 5.2).
package facet

import (
	"errors"
	"fmt"
	"strings"

	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

// PathStep is one property hop of a facet path; Inverse walks p⁻¹.
type PathStep struct {
	P       rdf.Term
	Inverse bool
}

func (s PathStep) String() string {
	if s.Inverse {
		return "^" + s.P.LocalName()
	}
	return s.P.LocalName()
}

// Path is a sequence of property hops from the focus entities.
type Path []PathStep

func (p Path) String() string {
	parts := make([]string, len(p))
	for i, s := range p {
		parts[i] = s.String()
	}
	return strings.Join(parts, "/")
}

// Equal reports whether two paths are identical.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Cond is one conjunctive condition of an intention: the entities whose
// Path-value equals Value (or falls in Values / satisfies Op against Value)
// survive.
type Cond struct {
	Path Path
	// Value is the required value (exact match) when Op is empty or "=".
	Value rdf.Term
	// Values, when non-empty, means membership in the set.
	Values []rdf.Term
	// Op supports literal range filters: < <= > >= != (the paper's range
	// values button, Example 3 of §5.1).
	Op string
}

// ValidRangeOp reports whether op is a comparison a range click can make:
// "" (equality, as "="), =, !=, <, <=, > or >=. An intention writes its
// operator verbatim into a FILTER, so nothing else may reach one.
func ValidRangeOp(op string) bool {
	switch op {
	case "", "=", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

// CheckPath reports why a click cannot restrict along p: the path has no
// step, or a step names no property. An intention writes no pattern for an
// empty path, so such a click would show one extension and analyze another.
// The server's handlers and the snapshot replay both ask it.
func CheckPath(p Path) error {
	if len(p) == 0 {
		return errors.New("facet: empty path")
	}
	for _, s := range p {
		if s.P.Value == "" {
			return errors.New("facet: path step without a property")
		}
	}
	return nil
}

func (c Cond) String() string {
	if len(c.Values) > 0 {
		vals := make([]string, len(c.Values))
		for i, v := range c.Values {
			vals[i] = v.LocalName()
		}
		return fmt.Sprintf("%s ∈ {%s}", c.Path, strings.Join(vals, ", "))
	}
	op := c.Op
	if op == "" {
		op = "="
	}
	return fmt.Sprintf("%s %s %s", c.Path, op, c.Value.LocalName())
}

// Intention is the query of a state (ctx.Int): a class restriction plus a
// conjunction of path conditions. Its answer is the state's extension.
type Intention struct {
	// Class restricts the focus to instances of this class (zero = none).
	Class rdf.Term
	// Conds are conjunctive path conditions.
	Conds []Cond
	// Seed, when non-empty, pins the focus to an externally produced result
	// set (keyword-search hand-off, §5.4.1): a VALUES block in SPARQL.
	Seed []rdf.Term
	// Base and PivotStep, when set, mean this intention's entities were
	// reached by *switching the focus* along a property from the entities
	// of Base (the type-switching differentiator of §5.2.1): the answer is
	// { y | ∃x ∈ ans(Base) : (x, p, y) } (or the inverse direction).
	Base      *Intention
	PivotStep *PathStep
}

// Clone deep-copies the intention (Base is shared: intentions are
// immutable once a state is created).
func (in Intention) Clone() Intention {
	out := Intention{Class: in.Class, Base: in.Base, PivotStep: in.PivotStep}
	out.Conds = append(out.Conds, in.Conds...)
	out.Seed = append(out.Seed, in.Seed...)
	return out
}

// String renders the intention for display in the UI breadcrumb.
func (in Intention) String() string {
	var parts []string
	if in.Base != nil && in.PivotStep != nil {
		parts = append(parts, "("+in.Base.String()+") ⇒ "+in.PivotStep.String())
	}
	if !in.Class.IsZero() {
		parts = append(parts, "type="+in.Class.LocalName())
	}
	for _, c := range in.Conds {
		parts = append(parts, c.String())
	}
	if len(parts) == 0 {
		return "⊤"
	}
	return strings.Join(parts, " ∧ ")
}

// ToSPARQL compiles the intention into a SELECT query returning the
// extension in variable ?x — the Table 5.2 encoding of the model's
// notations.
func (in Intention) ToSPARQL() string {
	var sb strings.Builder
	sb.WriteString("SELECT DISTINCT ?x WHERE {\n")
	pats := in.Patterns("?x")
	if pats == "" {
		pats = StartPatterns("?x") // unrestricted: the start state's rule
	}
	sb.WriteString(pats)
	sb.WriteString("}")
	return sb.String()
}

// Patterns renders the intention's graph patterns rooted at the given
// variable (used both by ToSPARQL and as the ExtraPatterns hook of the
// HIFUN translator).
func (in Intention) Patterns(rootVar string) string {
	return in.patternsAt(rootVar, 0)
}

func (in Intention) patternsAt(rootVar string, depth int) string {
	var sb strings.Builder
	vc := 0
	freshVar := func() string {
		vc++
		return fmt.Sprintf("%s_i%d", rootVar, vc)
	}
	// Focus pivot: the root entities are reached from the base intention's
	// entities via one property hop. A base that renders nothing is the
	// start state, whose entities the start rule names.
	if in.Base != nil && in.PivotStep != nil {
		baseVar := fmt.Sprintf("%s_b%d", rootVar, depth+1)
		base := in.Base.patternsAt(baseVar, depth+1)
		if base == "" {
			base = StartPatterns(baseVar)
		}
		sb.WriteString(base)
		if in.PivotStep.Inverse {
			fmt.Fprintf(&sb, "  %s <%s> %s .\n", rootVar, in.PivotStep.P.Value, baseVar)
		} else {
			fmt.Fprintf(&sb, "  %s <%s> %s .\n", baseVar, in.PivotStep.P.Value, rootVar)
		}
		// The focus moves to resources only (Model.SwitchFocus): a pivot along
		// a datatype property reaches no entity.
		fmt.Fprintf(&sb, "  FILTER(!isLiteral(%s))\n", rootVar)
	}
	if len(in.Seed) > 0 {
		fmt.Fprintf(&sb, "  VALUES %s {", rootVar)
		for _, t := range in.Seed {
			sb.WriteByte(' ')
			sb.WriteString(t.SPARQL())
		}
		sb.WriteString(" }\n")
	}
	if !in.Class.IsZero() {
		fmt.Fprintf(&sb, "  %s <%s> <%s> .\n", rootVar, rdf.RDFType, in.Class.Value)
	}
	for _, c := range in.Conds {
		cur := rootVar
		for i, step := range c.Path {
			last := i == len(c.Path)-1
			var next string
			if last && len(c.Values) == 0 && (c.Op == "" || c.Op == "=") && c.Value.Kind == rdf.KindIRI {
				// Fixed URI end: inline the value.
				next = "<" + c.Value.Value + ">"
			} else {
				next = freshVar()
			}
			if step.Inverse {
				fmt.Fprintf(&sb, "  %s <%s> %s .\n", next, step.P.Value, cur)
			} else {
				fmt.Fprintf(&sb, "  %s <%s> %s .\n", cur, step.P.Value, next)
			}
			if last && strings.HasPrefix(next, "?") {
				// Value condition on the path end.
				switch {
				case len(c.Values) > 0:
					vals := make([]string, len(c.Values))
					for j, v := range c.Values {
						vals[j] = v.SPARQL()
					}
					fmt.Fprintf(&sb, "  FILTER(%s IN (%s))\n", next, strings.Join(vals, ", "))
				case c.Op != "" && c.Op != "=":
					fmt.Fprintf(&sb, "  FILTER(%s %s %s)\n", next, c.Op, c.Value.SPARQL())
				default:
					fmt.Fprintf(&sb, "  FILTER(%s = %s)\n", next, c.Value.SPARQL())
				}
			}
			cur = next
		}
	}
	return sb.String()
}

// Answer evaluates the intention against g via the SPARQL engine (the
// "SPARQL-only" strategy of Table 5.2).
func (in Intention) Answer(g *rdf.Graph) ([]rdf.Term, error) {
	res, err := sparql.Select(g, in.ToSPARQL())
	if err != nil {
		return nil, err
	}
	return res.Column("x"), nil
}
