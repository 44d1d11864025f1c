package sparql

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"

	"rdfanalytics/internal/rdf"
)

// errEval is the SPARQL expression "type error": it makes FILTER conditions
// false and leaves BIND variables unbound, per the spec's error semantics.
var errEval = errors.New("sparql: expression evaluation error")

func evalErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errEval, fmt.Sprintf(format, args...))
}

// errUnbound is the evaluation error of an unbound variable: one value, not
// one allocation per row of an OPTIONAL-heavy filter.
var errUnbound = fmt.Errorf("%w: unbound variable", errEval)

// exprEnv provides what expression evaluation needs beyond the row: the
// evaluator, whose scope says which column a variable is and whose
// dictionary decodes it (only the variables the expression mentions are ever
// decoded), and which matches the pattern of an EXISTS.
type exprEnv struct {
	ev *evaluator
	// grp, when set, is the group an aggregate in the expression folds over
	// (HAVING, SELECT and ORDER BY expressions of a grouped query).
	grp *groupRows
}

// evalExpr evaluates an expression against a solution row. Returned errors
// that wrap errEval are ordinary SPARQL evaluation errors; FILTER treats
// them as false.
func (env exprEnv) evalExpr(e Expr, row []rdf.ID) (rdf.Term, error) {
	switch x := e.(type) {
	case ExprVar:
		if s := env.ev.sc.slot(x.Name); s >= 0 && row[s] != 0 {
			return env.ev.dict.term(row[s]), nil
		}
		return rdf.Term{}, errUnbound
	case ExprTerm:
		return x.Term, nil
	case ExprUnary:
		return env.evalUnary(x, row)
	case ExprBinary:
		return env.evalBinary(x, row)
	case ExprCall:
		return env.evalCall(x, row)
	case ExprIn:
		return env.evalIn(x, row)
	case ExprExists:
		return env.evalExists(x, row)
	case ExprAggregate:
		if env.grp == nil {
			return rdf.Term{}, evalErrf("aggregate %s outside grouping context", x.Func)
		}
		return env.ev.computeAggregate(x, *env.grp)
	default:
		return rdf.Term{}, evalErrf("unknown expression %T", e)
	}
}

// ebv computes the effective boolean value of a term.
func ebv(t rdf.Term) (bool, error) {
	if t.Kind != rdf.KindLiteral {
		return false, evalErrf("no effective boolean value for %s", t)
	}
	if v, ok := t.Bool(); ok {
		return v, nil
	}
	if t.Datatype == rdf.XSDBoolean {
		return false, evalErrf("malformed boolean %q", t.Value)
	}
	if t.IsNumeric() {
		f, ok := t.Float()
		if !ok {
			return false, nil
		}
		return f != 0, nil
	}
	if t.Datatype == "" || t.Datatype == rdf.XSDString || t.Lang != "" {
		return t.Value != "", nil
	}
	return false, evalErrf("no effective boolean value for %s", t)
}

// evalBool evaluates an expression to its effective boolean value.
func (env exprEnv) evalBool(e Expr, row []rdf.ID) (bool, error) {
	t, err := env.evalExpr(e, row)
	if err != nil {
		return false, err
	}
	return ebv(t)
}

func (env exprEnv) evalUnary(x ExprUnary, row []rdf.ID) (rdf.Term, error) {
	switch x.Op {
	case "!":
		v, err := env.evalBool(x.Sub, row)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBool(!v), nil
	case "-":
		t, err := env.evalExpr(x.Sub, row)
		if err != nil {
			return rdf.Term{}, err
		}
		f, ok := t.Float()
		if !ok {
			return rdf.Term{}, evalErrf("unary minus on non-numeric %s", t)
		}
		return numericResult(-f, t, t), nil
	default:
		return rdf.Term{}, evalErrf("unknown unary op %q", x.Op)
	}
}

func (env exprEnv) evalBinary(x ExprBinary, row []rdf.ID) (rdf.Term, error) {
	switch x.Op {
	case "&&":
		l, errL := env.evalBool(x.Left, row)
		r, errR := env.evalBool(x.Right, row)
		// SPARQL three-valued logic: false && error = false.
		switch {
		case errL == nil && errR == nil:
			return rdf.NewBool(l && r), nil
		case errL == nil && !l:
			return rdf.NewBool(false), nil
		case errR == nil && !r:
			return rdf.NewBool(false), nil
		default:
			if errL != nil {
				return rdf.Term{}, errL
			}
			return rdf.Term{}, errR
		}
	case "||":
		l, errL := env.evalBool(x.Left, row)
		r, errR := env.evalBool(x.Right, row)
		switch {
		case errL == nil && errR == nil:
			return rdf.NewBool(l || r), nil
		case errL == nil && l:
			return rdf.NewBool(true), nil
		case errR == nil && r:
			return rdf.NewBool(true), nil
		default:
			if errL != nil {
				return rdf.Term{}, errL
			}
			return rdf.Term{}, errR
		}
	}
	l, err := env.evalExpr(x.Left, row)
	if err != nil {
		return rdf.Term{}, err
	}
	r, err := env.evalExpr(x.Right, row)
	if err != nil {
		return rdf.Term{}, err
	}
	switch x.Op {
	case "=", "!=":
		eq, err := termsEqual(l, r)
		if err != nil {
			return rdf.Term{}, err
		}
		if x.Op == "!=" {
			eq = !eq
		}
		return rdf.NewBool(eq), nil
	case "<", "<=", ">", ">=":
		c, err := compareTerms(l, r)
		if err != nil {
			return rdf.Term{}, err
		}
		var v bool
		switch x.Op {
		case "<":
			v = c < 0
		case "<=":
			v = c <= 0
		case ">":
			v = c > 0
		case ">=":
			v = c >= 0
		}
		return rdf.NewBool(v), nil
	case "+", "-", "*", "/":
		lf, okL := l.Float()
		rf, okR := r.Float()
		if !okL || !okR {
			return rdf.Term{}, evalErrf("arithmetic on non-numeric operands %s, %s", l, r)
		}
		var f float64
		switch x.Op {
		case "+":
			f = lf + rf
		case "-":
			f = lf - rf
		case "*":
			f = lf * rf
		case "/":
			if rf == 0 {
				return rdf.Term{}, evalErrf("division by zero")
			}
			f = lf / rf
		}
		if x.Op == "/" {
			// xsd:integer / xsd:integer yields xsd:decimal per spec.
			return rdf.NewDecimal(f), nil
		}
		return numericResult(f, l, r), nil
	default:
		return rdf.Term{}, evalErrf("unknown binary op %q", x.Op)
	}
}

// numericResult picks the result datatype by numeric promotion: integer if
// both operands are integers and the value is integral, decimal/double
// otherwise.
func numericResult(f float64, l, r rdf.Term) rdf.Term {
	isInt := func(t rdf.Term) bool {
		switch t.Datatype {
		case rdf.XSDInteger, rdf.XSDInt, rdf.XSDLong, rdf.XSDShort, rdf.XSDByte,
			rdf.XSDNonNegativeInteger, rdf.XSDPositiveInteger:
			return true
		}
		return false
	}
	if isInt(l) && isInt(r) && f == math.Trunc(f) {
		return rdf.NewInteger(int64(f))
	}
	if l.Datatype == rdf.XSDDouble || r.Datatype == rdf.XSDDouble {
		return rdf.NewDouble(f)
	}
	return rdf.NewDecimal(f)
}

// termsEqual implements SPARQL "=": numeric comparison for numerics, value
// equality with type error for incomparable literals, identity for IRIs.
func termsEqual(l, r rdf.Term) (bool, error) {
	if l == r {
		return true, nil
	}
	if l.IsNumeric() && r.IsNumeric() {
		lf, okL := l.Float()
		rf, okR := r.Float()
		if okL && okR {
			return lf == rf, nil
		}
	}
	if l.IsTemporal() && r.IsTemporal() {
		if lt, ok := l.Time(); ok {
			if rt, ok2 := r.Time(); ok2 {
				return lt.Equal(rt), nil
			}
		}
	}
	// Different kinds, or same-kind different values: plain inequality for
	// resources and comparable literals.
	if l.Kind != rdf.KindLiteral || r.Kind != rdf.KindLiteral {
		return false, nil
	}
	// Same datatype, different lexical form -> unequal; different datatypes
	// of unknown semantics -> error per spec (we relax to unequal for
	// robustness with plain strings).
	return false, nil
}

// compareTerms orders two literals: numeric, temporal, boolean, or string.
func compareTerms(l, r rdf.Term) (int, error) {
	if l.IsNumeric() && r.IsNumeric() {
		lf, okL := l.Float()
		rf, okR := r.Float()
		if !okL || !okR {
			return 0, evalErrf("malformed numeric literal")
		}
		switch {
		case lf < rf:
			return -1, nil
		case lf > rf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	// Only literals typed xsd:date / xsd:dateTime compare on the time line;
	// a plain string that merely looks like a date keeps string comparison.
	if l.IsTemporal() && r.IsTemporal() {
		lt, okL := l.Time()
		rt, okR := r.Time()
		if !okL || !okR {
			return 0, evalErrf("malformed temporal literal")
		}
		switch {
		case lt.Before(rt):
			return -1, nil
		case lt.After(rt):
			return 1, nil
		default:
			return 0, nil
		}
	}
	lb, okL2 := l.Bool()
	rb, okR2 := r.Bool()
	if okL2 && okR2 {
		li, ri := 0, 0
		if lb {
			li = 1
		}
		if rb {
			ri = 1
		}
		return li - ri, nil
	}
	if l.Kind == rdf.KindLiteral && r.Kind == rdf.KindLiteral {
		return strings.Compare(l.Value, r.Value), nil
	}
	return 0, evalErrf("cannot order %s and %s", l, r)
}

func (env exprEnv) evalIn(x ExprIn, row []rdf.ID) (rdf.Term, error) {
	l, err := env.evalExpr(x.Left, row)
	if err != nil {
		return rdf.Term{}, err
	}
	found := false
	for _, item := range x.List {
		r, err := env.evalExpr(item, row)
		if err != nil {
			continue
		}
		eq, err := termsEqual(l, r)
		if err == nil && eq {
			found = true
			break
		}
	}
	if x.Not {
		found = !found
	}
	return rdf.NewBool(found), nil
}

func (env exprEnv) evalExists(x ExprExists, row []rdf.ID) (rdf.Term, error) {
	found := env.ev.evalGroup(x.Pattern, &batch{width: len(row), vals: row}).n() > 0
	if x.Not {
		found = !found
	}
	return rdf.NewBool(found), nil
}

func (env exprEnv) evalCall(x ExprCall, row []rdf.ID) (rdf.Term, error) {
	// Datatype casts: the function name is an IRI.
	if strings.Contains(x.Func, "://") {
		return env.evalCast(x, row)
	}
	name := strings.ToUpper(x.Func)
	arg := func(i int) (rdf.Term, error) {
		if i >= len(x.Args) {
			return rdf.Term{}, evalErrf("%s: missing argument %d", name, i)
		}
		return env.evalExpr(x.Args[i], row)
	}
	switch name {
	case "BOUND":
		v, ok := x.Args[0].(ExprVar)
		if !ok {
			return rdf.Term{}, evalErrf("BOUND requires a variable")
		}
		s := env.ev.sc.slot(v.Name)
		return rdf.NewBool(s >= 0 && row[s] != 0), nil
	case "COALESCE":
		for _, a := range x.Args {
			if t, err := env.evalExpr(a, row); err == nil {
				return t, nil
			}
		}
		return rdf.Term{}, evalErrf("COALESCE: no valid argument")
	case "IF":
		cond, err := env.evalBool(x.Args[0], row)
		if err != nil {
			return rdf.Term{}, err
		}
		if cond {
			return arg(1)
		}
		return arg(2)
	}
	// Strict builtins: evaluate all arguments first.
	args := make([]rdf.Term, len(x.Args))
	for i := range x.Args {
		t, err := arg(i)
		if err != nil {
			return rdf.Term{}, err
		}
		args[i] = t
	}
	switch name {
	case "STR":
		return rdf.NewString(args[0].Value), nil
	case "LANG":
		return rdf.NewString(args[0].Lang), nil
	case "LANGMATCHES":
		tag := strings.ToLower(args[0].Value)
		rng := strings.ToLower(args[1].Value)
		match := rng == "*" && tag != "" || tag == rng ||
			strings.HasPrefix(tag, rng+"-")
		return rdf.NewBool(match), nil
	case "DATATYPE":
		if args[0].Kind != rdf.KindLiteral {
			return rdf.Term{}, evalErrf("DATATYPE of non-literal")
		}
		dt := args[0].Datatype
		if dt == "" {
			dt = rdf.XSDString
		}
		return rdf.NewIRI(dt), nil
	case "IRI", "URI":
		return rdf.NewIRI(args[0].Value), nil
	case "ISIRI", "ISURI":
		return rdf.NewBool(args[0].IsIRI()), nil
	case "ISBLANK":
		return rdf.NewBool(args[0].IsBlank()), nil
	case "ISLITERAL":
		return rdf.NewBool(args[0].IsLiteral()), nil
	case "ISNUMERIC":
		return rdf.NewBool(args[0].IsNumeric()), nil
	case "SAMETERM":
		return rdf.NewBool(args[0] == args[1]), nil
	case "ABS", "CEIL", "FLOOR", "ROUND":
		f, ok := args[0].Float()
		if !ok {
			return rdf.Term{}, evalErrf("%s on non-numeric", name)
		}
		switch name {
		case "ABS":
			f = math.Abs(f)
		case "CEIL":
			f = math.Ceil(f)
		case "FLOOR":
			f = math.Floor(f)
		case "ROUND":
			f = math.Round(f)
		}
		return numericResult(f, args[0], args[0]), nil
	case "STRLEN":
		return rdf.NewInteger(int64(len([]rune(args[0].Value)))), nil
	case "UCASE":
		return stringLike(args[0], strings.ToUpper(args[0].Value)), nil
	case "LCASE":
		return stringLike(args[0], strings.ToLower(args[0].Value)), nil
	case "CONCAT":
		var sb strings.Builder
		for _, a := range args {
			sb.WriteString(a.Value)
		}
		return rdf.NewString(sb.String()), nil
	case "CONTAINS":
		return rdf.NewBool(strings.Contains(args[0].Value, args[1].Value)), nil
	case "STRSTARTS":
		return rdf.NewBool(strings.HasPrefix(args[0].Value, args[1].Value)), nil
	case "STRENDS":
		return rdf.NewBool(strings.HasSuffix(args[0].Value, args[1].Value)), nil
	case "STRBEFORE":
		i := strings.Index(args[0].Value, args[1].Value)
		if i < 0 {
			return rdf.NewString(""), nil
		}
		return stringLike(args[0], args[0].Value[:i]), nil
	case "STRAFTER":
		i := strings.Index(args[0].Value, args[1].Value)
		if i < 0 {
			return rdf.NewString(""), nil
		}
		return stringLike(args[0], args[0].Value[i+len(args[1].Value):]), nil
	case "SUBSTR":
		runes := []rune(args[0].Value)
		start, ok := args[1].Int()
		if !ok || start < 1 {
			return rdf.Term{}, evalErrf("SUBSTR: bad start")
		}
		end := int64(len(runes)) + 1
		if len(args) > 2 {
			length, ok := args[2].Int()
			if !ok {
				return rdf.Term{}, evalErrf("SUBSTR: bad length")
			}
			end = start + length
		}
		if start > int64(len(runes))+1 {
			return stringLike(args[0], ""), nil
		}
		if end > int64(len(runes))+1 {
			end = int64(len(runes)) + 1
		}
		return stringLike(args[0], string(runes[start-1:end-1])), nil
	case "REPLACE":
		re, err := regexp.Compile(args[1].Value)
		if err != nil {
			return rdf.Term{}, evalErrf("REPLACE: bad pattern %q", args[1].Value)
		}
		return stringLike(args[0], re.ReplaceAllString(args[0].Value, args[2].Value)), nil
	case "REGEX":
		pattern := args[1].Value
		if len(args) > 2 && strings.Contains(args[2].Value, "i") {
			pattern = "(?i)" + pattern
		}
		re, err := regexp.Compile(pattern)
		if err != nil {
			return rdf.Term{}, evalErrf("REGEX: bad pattern %q", pattern)
		}
		return rdf.NewBool(re.MatchString(args[0].Value)), nil
	case "YEAR", "MONTH", "DAY", "HOURS", "MINUTES", "SECONDS":
		tm, ok := args[0].Time()
		if !ok {
			return rdf.Term{}, evalErrf("%s on non-temporal %s", name, args[0])
		}
		switch name {
		case "YEAR":
			return rdf.NewInteger(int64(tm.Year())), nil
		case "MONTH":
			return rdf.NewInteger(int64(tm.Month())), nil
		case "DAY":
			return rdf.NewInteger(int64(tm.Day())), nil
		case "HOURS":
			return rdf.NewInteger(int64(tm.Hour())), nil
		case "MINUTES":
			return rdf.NewInteger(int64(tm.Minute())), nil
		default:
			return rdf.NewInteger(int64(tm.Second())), nil
		}
	case "STRLANG":
		return rdf.NewLangString(args[0].Value, args[1].Value), nil
	case "STRDT":
		return rdf.NewTyped(args[0].Value, args[1].Value), nil
	case "ENCODE_FOR_URI":
		return rdf.NewString(encodeForURI(args[0].Value)), nil
	default:
		return rdf.Term{}, evalErrf("unsupported builtin %s", name)
	}
}

// stringLike keeps the language tag of the source term, per the string
// function rules.
func stringLike(src rdf.Term, v string) rdf.Term {
	if src.Lang != "" {
		return rdf.NewLangString(v, src.Lang)
	}
	return rdf.NewString(v)
}

func encodeForURI(s string) string {
	var sb strings.Builder
	for _, b := range []byte(s) {
		if (b >= 'A' && b <= 'Z') || (b >= 'a' && b <= 'z') ||
			(b >= '0' && b <= '9') || b == '-' || b == '_' || b == '.' || b == '~' {
			sb.WriteByte(b)
		} else {
			fmt.Fprintf(&sb, "%%%02X", b)
		}
	}
	return sb.String()
}

func (env exprEnv) evalCast(x ExprCall, row []rdf.ID) (rdf.Term, error) {
	if len(x.Args) != 1 {
		return rdf.Term{}, evalErrf("cast takes one argument")
	}
	v, err := env.evalExpr(x.Args[0], row)
	if err != nil {
		return rdf.Term{}, err
	}
	lex := strings.TrimSpace(v.Value)
	switch x.Func {
	case rdf.XSDInteger, rdf.XSDInt, rdf.XSDLong:
		if f, ok := v.Float(); ok {
			return rdf.NewInteger(int64(f)), nil
		}
		n, err := strconv.ParseInt(lex, 10, 64)
		if err != nil {
			return rdf.Term{}, evalErrf("cannot cast %q to integer", lex)
		}
		return rdf.NewInteger(n), nil
	case rdf.XSDDecimal, rdf.XSDDouble, rdf.XSDFloat:
		f, err := strconv.ParseFloat(lex, 64)
		if err != nil {
			return rdf.Term{}, evalErrf("cannot cast %q to %s", lex, x.Func)
		}
		if x.Func == rdf.XSDDecimal {
			return rdf.NewDecimal(f), nil
		}
		return rdf.NewDouble(f), nil
	case rdf.XSDBoolean:
		switch lex {
		case "true", "1":
			return rdf.NewBool(true), nil
		case "false", "0":
			return rdf.NewBool(false), nil
		}
		return rdf.Term{}, evalErrf("cannot cast %q to boolean", lex)
	case rdf.XSDString:
		return rdf.NewString(v.Value), nil
	case rdf.XSDDate, rdf.XSDDateTime:
		if _, ok := rdf.NewTyped(lex, x.Func).Time(); !ok {
			return rdf.Term{}, evalErrf("cannot cast %q to %s", lex, x.Func)
		}
		return rdf.NewTyped(lex, x.Func), nil
	default:
		return rdf.Term{}, evalErrf("unsupported cast to <%s>", x.Func)
	}
}
