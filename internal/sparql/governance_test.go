package sparql

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"rdfanalytics/internal/fault"
	"rdfanalytics/internal/rdf"
)

// governanceGraph builds a graph whose cross products are large enough to
// need multiple pattern evaluations but small enough to stay fast.
func governanceGraph(n int) *rdf.Graph {
	var sb strings.Builder
	sb.WriteString("@prefix ex: <http://e/> .\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "ex:a%d ex:p %d .\n", i, i)
		fmt.Fprintf(&sb, "ex:b%d ex:q %d .\n", i, i)
		fmt.Fprintf(&sb, "ex:a%d ex:next ex:a%d .\n", i, (i+1)%n)
	}
	return rdf.MustLoadTurtle(sb.String())
}

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return q
}

// TestTimeoutMidJoin injects a delay at the join fault site so the
// evaluation reliably overruns a short deadline, and asserts the
// structured timeout comes back promptly with no partial results.
func TestTimeoutMidJoin(t *testing.T) {
	if err := fault.Configure("sparql.join=delay:50ms"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	g := governanceGraph(50)
	q := mustParse(t, "SELECT * WHERE { ?a <http://e/p> ?x . ?b <http://e/q> ?y }")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := ExecSelectCtx(ctx, g, q, Options{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if res != nil {
		t.Fatalf("aborted query returned partial results: %d rows", len(res.Rows))
	}
	if AbortReason(err) != "timeout" {
		t.Fatalf("AbortReason = %q, want timeout", AbortReason(err))
	}
	if elapsed > time.Second {
		t.Fatalf("abort took %s, cancellation not cooperative", elapsed)
	}
}

// TestCancelMidPath cancels the context while a property-path expansion is
// underway (held open by an injected delay at the path fault site).
func TestCancelMidPath(t *testing.T) {
	if err := fault.Configure("sparql.path=delay:1s"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	g := governanceGraph(30)
	q := mustParse(t, "SELECT * WHERE { ?a (<http://e/next>)+ ?b }")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := ExecSelectCtx(ctx, g, q, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if AbortReason(err) != "cancelled" {
		t.Fatalf("AbortReason = %q, want cancelled", AbortReason(err))
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancel took %s", elapsed)
	}
}

// TestRowBudgetKillsCrossProduct asserts a cross product dies with a typed
// budget error once its intermediate binding set exceeds the row budget.
func TestRowBudgetKillsCrossProduct(t *testing.T) {
	g := governanceGraph(200) // cross product would be 40 000 rows
	q := mustParse(t, "SELECT * WHERE { ?a <http://e/p> ?x . ?b <http://e/q> ?y }")
	_, err := ExecSelectCtx(context.Background(), g, q, Options{
		Limits: Limits{MaxIntermediateRows: 1000},
	})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error %v is not a *BudgetError", err)
	}
	if be.Resource != "rows" {
		t.Fatalf("Resource = %q, want rows", be.Resource)
	}
	if be.Used <= be.Limit {
		t.Fatalf("Used %d should exceed Limit %d", be.Used, be.Limit)
	}
	if AbortReason(err) != "budget" {
		t.Fatalf("AbortReason = %q, want budget", AbortReason(err))
	}
}

// TestRowBudgetStopsTheScan: the budget ends an index-loop scan where it
// trips. One input row matching the whole graph is accounted while the scan
// runs, not after its matches have been buffered, so a killed SELECT * over
// 100 000 triples has allocated a block, not the graph.
func TestRowBudgetStopsTheScan(t *testing.T) {
	g := starGraph(33400) // 100 200 triples
	q := mustParse(t, "SELECT * WHERE { ?s ?p ?o }")
	const limit = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ExecSelectCtx(context.Background(), g, q, Options{
		Parallelism: 1,
		Limits:      Limits{MaxIntermediateRows: limit},
	})
	runtime.ReadMemStats(&after)
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "rows" {
		t.Fatalf("want a rows BudgetError, got %v", err)
	}
	if be.Used <= limit || be.Used > limit+256 {
		t.Errorf("Used = %d, want within one 256-row flush above %d", be.Used, limit)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("the killed query allocated %d bytes: the scan ran on past the budget", alloc)
	}
}

// TestRowBudgetAllowsSmallQueries: a query under the budget is unaffected.
func TestRowBudgetAllowsSmallQueries(t *testing.T) {
	g := governanceGraph(20)
	q := mustParse(t, "SELECT * WHERE { ?a <http://e/p> ?x }")
	res, err := ExecSelectCtx(context.Background(), g, q, Options{
		Limits: Limits{MaxIntermediateRows: 1000},
	})
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if len(res.Rows) != 20 {
		t.Fatalf("got %d rows, want 20", len(res.Rows))
	}
}

// TestPathDepthBudget caps BFS depth below the diameter of a cycle.
func TestPathDepthBudget(t *testing.T) {
	g := governanceGraph(100)
	q := mustParse(t, "SELECT * WHERE { <http://e/a0> (<http://e/next>)+ ?b }")
	_, err := ExecSelectCtx(context.Background(), g, q, Options{
		Limits: Limits{MaxPathDepth: 5},
	})
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "path_depth" {
		t.Fatalf("want path_depth BudgetError, got %v", err)
	}
}

// TestPathVisitedBudget caps the visited set of a path expansion.
func TestPathVisitedBudget(t *testing.T) {
	g := governanceGraph(100)
	q := mustParse(t, "SELECT * WHERE { <http://e/a0> (<http://e/next>)+ ?b }")
	_, err := ExecSelectCtx(context.Background(), g, q, Options{
		Limits: Limits{MaxPathVisited: 10},
	})
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "path_visited" {
		t.Fatalf("want path_visited BudgetError, got %v", err)
	}
}

// TestUnlimitedPathCaps: negative caps disable the default governance.
func TestUnlimitedPathCaps(t *testing.T) {
	g := governanceGraph(50)
	q := mustParse(t, "SELECT * WHERE { <http://e/a0> (<http://e/next>)+ ?b }")
	res, err := ExecSelectCtx(context.Background(), g, q, Options{
		Limits: Limits{MaxPathDepth: -1, MaxPathVisited: -1},
	})
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	// A cycle of 50 leads back to its origin, so next+ reaches all 50 nodes
	// (see TestPathPlusThroughCycle).
	if len(res.Rows) != 50 {
		t.Fatalf("got %d rows, want 50 (the whole cycle)", len(res.Rows))
	}
}

// TestUpdateCtxAborted: a cancelled update applies nothing.
func TestUpdateCtxAborted(t *testing.T) {
	g := governanceGraph(20)
	before := g.Len()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExecUpdateCtx(ctx, g, "DELETE WHERE { ?s <http://e/p> ?o }")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if g.Len() != before {
		t.Fatalf("aborted update mutated the graph: %d -> %d triples", before, g.Len())
	}
}

// TestDeadlineDifferential: a generous deadline must not change results —
// the serialized answer is byte-identical to the no-deadline run. This
// pins down that cancellation polling has no effect on query semantics.
func TestDeadlineDifferential(t *testing.T) {
	g := governanceGraph(60)
	queries := []string{
		"SELECT * WHERE { ?a <http://e/p> ?x . ?a <http://e/next> ?b }",
		"SELECT ?x (COUNT(*) AS ?n) WHERE { ?a <http://e/p> ?x } GROUP BY ?x ORDER BY ?x",
		"SELECT * WHERE { ?a (<http://e/next>)+ ?b }",
		"SELECT * WHERE { ?a <http://e/p> ?x . OPTIONAL { ?a <http://e/next> ?b } }",
	}
	for _, src := range queries {
		q := mustParse(t, src)
		plain, err := ExecSelectOpts(g, q, Options{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		bounded, err := ExecSelectCtx(ctx, g, q, Options{})
		cancel()
		if err != nil {
			t.Fatalf("%s under deadline: %v", src, err)
		}
		plain.Sort()
		bounded.Sort()
		var a, b bytes.Buffer
		plain.WriteJSON(&a)
		bounded.WriteJSON(&b)
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: deadline changed the answer\nplain:   %s\nbounded: %s", src, a.String(), b.String())
		}
	}
}

// TestBudgetErrorMessage pins the error text shape operators will grep for.
func TestBudgetErrorMessage(t *testing.T) {
	e := &BudgetError{Resource: "rows", Used: 2048, Limit: 1000}
	msg := e.Error()
	for _, want := range []string{"rows", "2048", "1000"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("BudgetError message %q missing %q", msg, want)
		}
	}
	if !errors.Is(e, ErrBudgetExceeded) {
		t.Fatal("BudgetError does not match ErrBudgetExceeded")
	}
}
