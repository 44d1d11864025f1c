package sparql

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"rdfanalytics/internal/rdf"
)

// numExpr is a random numeric or temporal expression: its SPARQL text and
// a reference evaluation over one row's ?v and ?d that builds every number
// with rdf.NewInteger, NewDecimal or NewDouble (ok false: an evaluation
// error).
type numExpr struct {
	src  string
	eval func(v, d rdf.Term) (rdf.Term, bool)
}

// refPromote is numeric type promotion, built with the rdf constructors.
func refPromote(f float64, l, r rdf.Term) rdf.Term {
	switch {
	case l.Datatype == rdf.XSDInteger && r.Datatype == rdf.XSDInteger && f == math.Trunc(f):
		return rdf.NewInteger(int64(f))
	case l.Datatype == rdf.XSDDouble || r.Datatype == rdf.XSDDouble:
		return rdf.NewDouble(f)
	}
	return rdf.NewDecimal(f)
}

// genNumExpr draws an expression of at most depth levels.
func genNumExpr(rng *rand.Rand, depth int) numExpr {
	consts := []rdf.Term{
		rdf.NewTyped("0", rdf.XSDInteger), rdf.NewTyped("3", rdf.XSDInteger), rdf.NewTyped("-7", rdf.XSDInteger),
		rdf.NewTyped("9007199254740993", rdf.XSDInteger), rdf.NewTyped("2.5", rdf.XSDDecimal),
		rdf.NewTyped("-0.0", rdf.XSDDecimal), rdf.NewTyped("1.5e3", rdf.XSDDouble), rdf.NewTyped("-0e0", rdf.XSDDouble),
	}
	if depth == 0 || rng.Intn(4) == 0 {
		switch k := rng.Intn(4); {
		case k == 0:
			c := consts[rng.Intn(len(consts))]
			return numExpr{c.Value, func(_, _ rdf.Term) (rdf.Term, bool) { return c, true }}
		case k == 1:
			fn := []string{"YEAR", "MONTH", "DAY", "HOURS", "MINUTES", "SECONDS"}[rng.Intn(6)]
			return numExpr{fn + "(?d)", func(_, d rdf.Term) (rdf.Term, bool) {
				tm, ok := d.Time()
				part := map[string]int{"YEAR": tm.Year(), "MONTH": int(tm.Month()), "DAY": tm.Day(),
					"HOURS": tm.Hour(), "MINUTES": tm.Minute(), "SECONDS": tm.Second()}[fn]
				return rdf.NewInteger(int64(part)), ok
			}}
		}
		return numExpr{"?v", func(v, _ rdf.Term) (rdf.Term, bool) { return v, true }}
	}
	sub := genNumExpr(rng, depth-1)
	unary := func(src string, f func(t rdf.Term) (rdf.Term, bool)) numExpr {
		return numExpr{src, func(v, d rdf.Term) (rdf.Term, bool) {
			t, ok := sub.eval(v, d)
			if !ok {
				return rdf.Term{}, false
			}
			return f(t)
		}}
	}
	switch k := rng.Intn(6); k {
	case 0:
		op := []string{"+", "-", "*", "/"}[rng.Intn(4)]
		right := genNumExpr(rng, depth-1)
		return numExpr{"(" + sub.src + " " + op + " " + right.src + ")", func(v, d rdf.Term) (rdf.Term, bool) {
			l, okL := sub.eval(v, d)
			r, okR := right.eval(v, d)
			lf, okL2 := l.Float()
			rf, okR2 := r.Float()
			if !okL || !okR || !okL2 || !okR2 || op == "/" && rf == 0 {
				return rdf.Term{}, false
			}
			switch op {
			case "+":
				return refPromote(lf+rf, l, r), true
			case "-":
				return refPromote(lf-rf, l, r), true
			case "*":
				return refPromote(lf*rf, l, r), true
			}
			return rdf.NewDecimal(lf / rf), true
		}}
	case 1:
		return unary("-("+sub.src+")", func(t rdf.Term) (rdf.Term, bool) {
			f, ok := t.Float()
			return refPromote(-f, t, t), ok
		})
	case 2:
		fn := []string{"ABS", "CEIL", "FLOOR", "ROUND"}[rng.Intn(4)]
		op := map[string]func(float64) float64{"ABS": math.Abs, "CEIL": math.Ceil, "FLOOR": math.Floor, "ROUND": math.Round}[fn]
		return unary(fn+"("+sub.src+")", func(t rdf.Term) (rdf.Term, bool) {
			f, ok := t.Float()
			return refPromote(op(f), t, t), ok
		})
	case 3:
		dt := []string{rdf.XSDInteger, rdf.XSDDecimal, rdf.XSDDouble}[rng.Intn(3)]
		return unary("<"+dt+">("+sub.src+")", func(t rdf.Term) (rdf.Term, bool) {
			lex := strings.TrimSpace(t.Value)
			if dt == rdf.XSDInteger {
				if f, ok := t.Float(); ok {
					return rdf.NewInteger(int64(f)), true
				}
				n, err := strconv.ParseInt(lex, 10, 64)
				return rdf.NewInteger(n), err == nil
			}
			f, err := strconv.ParseFloat(lex, 64)
			if dt == rdf.XSDDecimal {
				return rdf.NewDecimal(f), err == nil
			}
			return rdf.NewDouble(f), err == nil
		})
	case 4:
		return unary("STRLEN(STR("+sub.src+"))", func(t rdf.Term) (rdf.Term, bool) {
			return rdf.NewInteger(int64(utf8.RuneCountInString(t.Value))), true
		})
	}
	return sub
}

// refAggs folds values as SUM, AVG and COUNT do (§18.5): SUM stays an
// integer while every value is one, a non-numeric value (NaN included: Float
// refuses it) makes SUM and AVG errors.
func refAggs(vals []rdf.Term) (sum, avg, count rdf.Term) {
	var isum int64
	var fsum, asum float64
	float, bad := false, false
	for _, v := range vals {
		f, ok := v.Float()
		if !ok {
			bad = true
			continue
		}
		asum += f
		if i, okI := v.Int(); !float && v.Datatype == rdf.XSDInteger && okI {
			isum += i
			continue
		}
		if !float {
			float, fsum = true, float64(isum)
		}
		fsum += f
	}
	count = rdf.NewInteger(int64(len(vals)))
	switch {
	case bad:
		return rdf.Term{}, rdf.Term{}, count
	case float:
		sum = rdf.NewDecimal(fsum)
	default:
		sum = rdf.NewInteger(isum)
	}
	if avg = rdf.NewInteger(0); len(vals) > 0 {
		avg = rdf.NewDecimal(asum / float64(len(vals)))
	}
	return sum, avg, count
}

// TestComputedNumbersMatchConstructors: the per-evaluation number intern
// (termDict.number) hands out, for every value, the literal rdf.NewInteger,
// NewDecimal or NewDouble builds. 150 seeded random numeric and temporal
// expressions, over values that include 0 and -0, negatives, integers past
// 2^53, INF and NaN, decimals and dateTimes in mixed timezones, run in BIND,
// as SELECT expressions, as derived GROUP BY keys under COUNT/SUM/AVG, and as
// aggregate arguments; each Table.JSON body must be byte-identical to the
// table the reference evaluator builds.
func TestComputedNumbersMatchConstructors(t *testing.T) {
	vals := []rdf.Term{
		rdf.NewTyped("0", rdf.XSDInteger), rdf.NewTyped("-0", rdf.XSDInteger), rdf.NewTyped("7", rdf.XSDInteger),
		rdf.NewTyped("-12", rdf.XSDInteger), rdf.NewTyped("9007199254740993", rdf.XSDInteger),
		rdf.NewTyped("-9007199254740995", rdf.XSDInteger), rdf.NewTyped("2.5", rdf.XSDDecimal),
		rdf.NewTyped("-0.0", rdf.XSDDecimal), rdf.NewTyped("0.1", rdf.XSDDecimal), rdf.NewTyped("-3.75", rdf.XSDDecimal),
		rdf.NewTyped("1.5e3", rdf.XSDDouble), rdf.NewTyped("-0e0", rdf.XSDDouble), rdf.NewTyped("INF", rdf.XSDDouble),
		rdf.NewTyped("-INF", rdf.XSDDouble), rdf.NewTyped("NaN", rdf.XSDDouble), rdf.NewTyped("2.5E-3", rdf.XSDDouble),
	}
	dates := []rdf.Term{
		rdf.NewTyped("2021-06-01T23:30:00+05:00", rdf.XSDDateTime), rdf.NewTyped("2020-12-31T23:59:59Z", rdf.XSDDateTime),
		rdf.NewTyped("2019-01-01T00:00:00-11:00", rdf.XSDDateTime), rdf.NewTyped("2021-02-28T12:00:30", rdf.XSDDateTime),
		rdf.NewTyped("2021-03-01", rdf.XSDDate),
	}
	rng := rand.New(rand.NewSource(44))
	var ts []rdf.Triple
	for i := 0; i < 40; i++ {
		s := e(fmt.Sprint("s", i))
		ts = append(ts, rdf.NewTriple(s, e("v"), vals[rng.Intn(len(vals))]), rdf.NewTriple(s, e("d"), dates[rng.Intn(len(dates))]))
	}
	g := rdf.NewGraph()
	g.AddAll(ts)
	const where = " WHERE { ?s <http://e/v> ?v ; <http://e/d> ?d "
	run := func(query string) *Table {
		t.Helper()
		tab, err := ExecSelectTable(context.Background(), g, MustParse(query), Options{})
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		return tab
	}
	base := run("SELECT ?s ?v ?d" + where + "}").Results()
	same := func(query string, vars []string, rows [][]rdf.Term) {
		t.Helper()
		if got, want := run(query).JSON(), tableOf(g, vars, rows).JSON(); string(got) != string(want) {
			t.Fatalf("%s:\n got %s\nwant %s", query, got, want)
		}
	}
	for i := 0; i < 150; i++ {
		x := genNumExpr(rng, 3)
		var perRow, keyed [][]rdf.Term
		var argVals []rdf.Term
		groups := map[rdf.Term][]rdf.Term{}
		for _, row := range base.Rows {
			val, ok := x.eval(row[1], row[2])
			if !ok {
				val = rdf.Term{}
			} else {
				argVals = append(argVals, val)
				if groups[val] == nil {
					keyed = append(keyed, []rdf.Term{val})
				}
				groups[val] = append(groups[val], row[1])
			}
			perRow = append(perRow, []rdf.Term{row[0], val})
		}
		same("SELECT ?s ?x"+where+"BIND("+x.src+" AS ?x) }", []string{"s", "x"}, perRow)
		same("SELECT ?s ("+x.src+" AS ?x)"+where+"}", []string{"s", "x"}, perRow)
		// Groups come out in the order of their N-Triples-rendered keys.
		slices.SortStableFunc(keyed, func(a, b []rdf.Term) int { return strings.Compare(a[0].String(), b[0].String()) })
		for j, k := range keyed {
			sum, avg, n := refAggs(groups[k[0]])
			keyed[j] = []rdf.Term{k[0], n, sum, avg}
		}
		same("SELECT ?k (COUNT(?v) AS ?n) (SUM(?v) AS ?sum) (AVG(?v) AS ?avg)"+where+"} GROUP BY ("+x.src+" AS ?k)",
			[]string{"k", "n", "sum", "avg"}, keyed)
		sum, avg, n := refAggs(argVals)
		same("SELECT (COUNT("+x.src+") AS ?n) (SUM("+x.src+") AS ?sum) (AVG("+x.src+") AS ?avg)"+where+"}",
			[]string{"n", "sum", "avg"}, [][]rdf.Term{{n, sum, avg}})
	}
}

// TestAppendNTMatchesTermString: the renderer behind group sort names and
// scan labels writes rdf.Term.String's bytes — escapes, language tags,
// datatypes and invalid UTF-8 included.
func TestAppendNTMatchesTermString(t *testing.T) {
	for _, term := range []rdf.Term{
		rdf.NewIRI("http://e/x"), rdf.NewBlank("b0"), rdf.NewString("plain"), rdf.NewString("q\"uo\\te\n\r\t"),
		rdf.NewLangString("chat", "fr"), rdf.NewTyped("2021-06-01", rdf.XSDDate), rdf.NewInteger(-3),
		rdf.NewString("bad\xff\xe2\x80 utf8 é"), rdf.NewTyped("x", ""), {},
	} {
		if got := string(appendNT([]byte("prefix"), term)); got != "prefix"+term.String() {
			t.Errorf("appendNT(%#v) = %q, want %q", term, got, "prefix"+term.String())
		}
	}
}
