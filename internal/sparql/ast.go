// Package sparql implements a SPARQL 1.1 query engine over rdf.Graph:
// lexer, recursive-descent parser, expression evaluator and a query
// evaluator supporting basic graph patterns, FILTER, OPTIONAL, UNION, BIND,
// VALUES, subqueries, property paths, GROUP BY with the standard aggregate
// functions, HAVING, ORDER BY, DISTINCT, LIMIT/OFFSET, and the SELECT /
// CONSTRUCT / ASK query forms.
//
// It is the endpoint substrate of the RDF-Analytics reproduction: every
// query emitted by the HIFUN→SPARQL translator (internal/hifun) and by the
// faceted-search intention compiler (internal/facet) is executable here.
package sparql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"rdfanalytics/internal/rdf"
)

// QueryForm discriminates the supported query forms.
type QueryForm int

const (
	// FormSelect is a SELECT query.
	FormSelect QueryForm = iota
	// FormAsk is an ASK query.
	FormAsk
	// FormConstruct is a CONSTRUCT query.
	FormConstruct
	// FormDescribe is a DESCRIBE query.
	FormDescribe
)

// Query is a parsed SPARQL query.
type Query struct {
	Form     QueryForm
	Prefixes map[string]string
	Select   SelectClause
	// Template holds the CONSTRUCT template patterns (Form == FormConstruct).
	Template []TriplePattern
	// Describe holds the DESCRIBE targets (Form == FormDescribe): variables
	// resolved against WHERE solutions, or concrete IRIs.
	Describe []Node
	Where    *GroupPattern
	GroupBy  []GroupCond
	Having   []Expr
	OrderBy  []OrderCond
	Limit    int // -1 means unset
	Offset   int
}

// SelectClause is the projection of a SELECT query.
type SelectClause struct {
	Distinct bool
	Star     bool
	Items    []SelectItem
}

// SelectItem is one projected column: a bare variable, or an expression
// (possibly an aggregate) with an output variable name.
type SelectItem struct {
	// Var is the output variable name (no '?'). For bare variables it is the
	// variable itself; for expressions without AS it is a generated name.
	Var string
	// Expr is nil for bare variables.
	Expr Expr
}

// GroupCond is one GROUP BY condition: a variable or an expression, with an
// optional binding name (GROUP BY (expr AS ?v)).
type GroupCond struct {
	Var  string // non-empty for plain variables or (expr AS ?var)
	Expr Expr   // nil for plain variables
}

// OrderCond is one ORDER BY condition.
type OrderCond struct {
	Desc bool
	Expr Expr
}

// GroupPattern is a group graph pattern: an ordered sequence of elements.
type GroupPattern struct {
	Elems []PatternElem
}

// PatternElem is one element of a group pattern. Exactly one field is set.
type PatternElem struct {
	Triple   *TriplePattern
	Filter   Expr
	Optional *GroupPattern
	Union    *UnionPattern
	Group    *GroupPattern // nested { ... }
	Bind     *BindElem
	Values   *ValuesElem
	SubQuery *Query
	Minus    *GroupPattern
}

// UnionPattern is a UNION of two or more alternatives.
type UnionPattern struct {
	Alternatives []*GroupPattern
}

// BindElem is BIND(expr AS ?var).
type BindElem struct {
	Expr Expr
	Var  string
}

// ValuesElem is an inline VALUES data block.
type ValuesElem struct {
	Vars []string
	Rows [][]rdf.Term // a zero Term means UNDEF
}

// NodeKind discriminates pattern node kinds.
type NodeKind int

const (
	// NodeVar is a variable pattern node.
	NodeVar NodeKind = iota
	// NodeTerm is a concrete RDF term pattern node.
	NodeTerm
)

// Node is a subject/predicate/object position in a triple pattern: a
// variable or a concrete term.
type Node struct {
	Kind NodeKind
	Var  string   // Kind == NodeVar
	Term rdf.Term // Kind == NodeTerm
}

// Var returns a variable node.
func Var(name string) Node { return Node{Kind: NodeVar, Var: name} }

// TermNode returns a concrete-term node.
func TermNode(t rdf.Term) Node { return Node{Kind: NodeTerm, Term: t} }

// IsVar reports whether the node is a variable.
func (n Node) IsVar() bool { return n.Kind == NodeVar }

func (n Node) String() string {
	if n.Kind == NodeVar {
		return "?" + n.Var
	}
	return n.Term.String()
}

// TriplePattern is a triple pattern whose predicate may be a property path.
type TriplePattern struct {
	S Node
	// P is the predicate when Path is nil.
	P Node
	// Path, when non-nil, is a non-trivial property path replacing P.
	Path Path
	O    Node
}

func (tp TriplePattern) String() string {
	var buf [128]byte
	return string(tp.appendText(buf[:0]))
}

// appendText appends the pattern as String renders it.
func (tp *TriplePattern) appendText(b []byte) []byte {
	for i, n := range [3]*Node{&tp.S, &tp.P, &tp.O} {
		switch {
		case i == 1 && tp.Path != nil:
			b = append(b, tp.Path.String()...)
		case n.IsVar():
			b = append(append(b, '?'), n.Var...)
		default:
			b = appendNT(b, n.Term)
		}
		b = append(b, ' ')
	}
	return append(b, '.')
}

// appendNT appends the term in N-Triples syntax: rdf.Term.String's bytes.
func appendNT(b []byte, t rdf.Term) []byte {
	switch t.Kind {
	case rdf.KindIRI:
		return append(append(append(b, '<'), t.Value...), '>')
	case rdf.KindBlank:
		return append(append(b, "_:"...), t.Value...)
	}
	b = append(b, '"')
	for _, r := range t.Value {
		switch r {
		case '"', '\\':
			b = append(b, '\\', byte(r))
		case '\n':
			b = append(b, `\n`...)
		case '\r':
			b = append(b, `\r`...)
		case '\t':
			b = append(b, `\t`...)
		default:
			b = utf8.AppendRune(b, r)
		}
	}
	b = append(b, '"')
	switch {
	case t.Lang != "":
		b = append(append(b, '@'), t.Lang...)
	case t.Datatype != "" && t.Datatype != rdf.XSDString:
		b = append(append(append(b, "^^<"...), t.Datatype...), '>')
	}
	return b
}

// Vars yields the variables of the pattern in S, P, O order, allocating
// nothing: for v := range tp.Vars { … }.
func (tp *TriplePattern) Vars(yield func(string) bool) {
	for _, n := range [3]*Node{&tp.S, &tp.P, &tp.O} {
		if n.IsVar() && !yield(n.Var) {
			return
		}
	}
}

// Path is a SPARQL 1.1 property path.
type Path interface {
	fmt.Stringer
	isPath()
}

// PathIRI is an atomic path: a single predicate IRI.
type PathIRI struct{ IRI rdf.Term }

// PathInverse is ^path.
type PathInverse struct{ Sub Path }

// PathSeq is path1/path2.
type PathSeq struct{ Left, Right Path }

// PathAlt is path1|path2.
type PathAlt struct{ Left, Right Path }

// PathMod is path?, path* or path+.
type PathMod struct {
	Sub Path
	Min int // 0 or 1
	Max int // 1 or -1 (unbounded)
}

func (PathIRI) isPath()     {}
func (PathInverse) isPath() {}
func (PathSeq) isPath()     {}
func (PathAlt) isPath()     {}
func (PathMod) isPath()     {}

func (p PathIRI) String() string     { return p.IRI.String() }
func (p PathInverse) String() string { return "^" + p.Sub.String() }
func (p PathSeq) String() string     { return p.Left.String() + "/" + p.Right.String() }
func (p PathAlt) String() string     { return "(" + p.Left.String() + "|" + p.Right.String() + ")" }
func (p PathMod) String() string {
	switch {
	case p.Min == 0 && p.Max == 1:
		return p.Sub.String() + "?"
	case p.Min == 0:
		return p.Sub.String() + "*"
	default:
		return p.Sub.String() + "+"
	}
}

// Expr is a SPARQL expression. Aggregate expressions only appear in SELECT,
// HAVING and ORDER BY of grouped queries.
type Expr interface {
	fmt.Stringer
	isExpr()
}

// ExprVar references a variable.
type ExprVar struct{ Name string }

// ExprTerm is a constant term.
type ExprTerm struct{ Term rdf.Term }

// ExprUnary is !x or -x or +x.
type ExprUnary struct {
	Op  string
	Sub Expr
}

// ExprBinary is a binary operation: || && = != < <= > >= + - * /.
type ExprBinary struct {
	Op          string
	Left, Right Expr
}

// ExprCall is a builtin or cast function call.
type ExprCall struct {
	Func string // upper-cased builtin name, or a datatype IRI for casts
	Args []Expr
}

// ExprAggregate is an aggregate application.
type ExprAggregate struct {
	Func      string // COUNT SUM AVG MIN MAX GROUP_CONCAT SAMPLE
	Distinct  bool
	Star      bool // COUNT(*)
	Arg       Expr
	Separator string // GROUP_CONCAT
}

// ExprExists is EXISTS{...} / NOT EXISTS{...}.
type ExprExists struct {
	Not     bool
	Pattern *GroupPattern
}

// ExprIn is ?x IN (a, b, c) / NOT IN.
type ExprIn struct {
	Not  bool
	Left Expr
	List []Expr
}

func (ExprVar) isExpr()       {}
func (ExprTerm) isExpr()      {}
func (ExprUnary) isExpr()     {}
func (ExprBinary) isExpr()    {}
func (ExprCall) isExpr()      {}
func (ExprAggregate) isExpr() {}
func (ExprExists) isExpr()    {}
func (ExprIn) isExpr()        {}

func (e ExprVar) String() string       { return string(appendExpr(nil, e)) }
func (e ExprTerm) String() string      { return string(appendExpr(nil, e)) }
func (e ExprUnary) String() string     { return string(appendExpr(nil, e)) }
func (e ExprBinary) String() string    { return string(appendExpr(nil, e)) }
func (e ExprCall) String() string      { return string(appendExpr(nil, e)) }
func (e ExprAggregate) String() string { return string(appendExpr(nil, e)) }
func (e ExprExists) String() string    { return string(appendExpr(nil, e)) }
func (e ExprIn) String() string        { return string(appendExpr(nil, e)) }

// appendExpr appends the text of e: what its String returns, rendered
// into b so that a caller holding a buffer allocates nothing.
func appendExpr(b []byte, e Expr) []byte {
	switch e := e.(type) {
	case ExprVar:
		return append(append(b, '?'), e.Name...)
	case ExprTerm:
		return appendNT(b, e.Term)
	case ExprUnary:
		return appendExpr(append(b, e.Op...), e.Sub)
	case ExprBinary:
		b = appendExpr(append(b, '('), e.Left)
		b = append(append(append(b, ' '), e.Op...), ' ')
		return append(appendExpr(b, e.Right), ')')
	case ExprCall:
		if strings.Contains(e.Func, "://") {
			b = append(append(append(b, '<'), e.Func...), '>')
		} else {
			b = append(b, e.Func...)
		}
		return append(appendExprList(append(b, '('), e.Args), ')')
	case ExprAggregate:
		b = append(append(b, e.Func...), '(')
		if e.Distinct {
			b = append(b, "DISTINCT "...)
		}
		if e.Star {
			b = append(b, '*')
		} else if e.Arg != nil {
			b = appendExpr(b, e.Arg)
		}
		if e.Func == "GROUP_CONCAT" && e.Separator != "" {
			b = append(append(append(b, `; SEPARATOR="`...), e.Separator...), '"')
		}
		return append(b, ')')
	case ExprExists:
		if e.Not {
			b = append(b, "NOT "...)
		}
		return append(b, "EXISTS {...}"...)
	case ExprIn:
		b = appendExpr(b, e.Left)
		if e.Not {
			b = append(b, " NOT IN ("...)
		} else {
			b = append(b, " IN ("...)
		}
		return append(appendExprList(b, e.List), ')')
	case aggRef:
		return strconv.AppendInt(append(b, "$agg"...), int64(e), 10)
	}
	return append(b, e.String()...)
}

// appendExprList appends es separated by ", ".
func appendExprList(b []byte, es []Expr) []byte {
	for i, x := range es {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendExpr(b, x)
	}
	return b
}

// walkExpr calls fn for e and then for its sub-expressions, depth first;
// fn returning false skips the sub-expressions of the node it was given. The
// pattern of an EXISTS is not an expression and is not entered.
func walkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case ExprUnary:
		walkExpr(x.Sub, fn)
	case ExprBinary:
		walkExpr(x.Left, fn)
		walkExpr(x.Right, fn)
	case ExprCall:
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
	case ExprIn:
		walkExpr(x.Left, fn)
		for _, a := range x.List {
			walkExpr(a, fn)
		}
	case ExprAggregate:
		walkExpr(x.Arg, fn)
	}
}

// HasAggregate reports whether the expression tree contains an aggregate.
func HasAggregate(e Expr) bool {
	found := false
	walkExpr(e, func(x Expr) bool {
		_, agg := x.(ExprAggregate)
		found = found || agg
		return !found
	})
	return found
}
