package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestTraceTree(t *testing.T) {
	tr := NewTrace("query")
	a := tr.Root().StartChild("parse")
	a.Finish()
	b := tr.Root().StartChild("match")
	b.SetAttr("rows", 42)
	c := b.StartChild("scan")
	c.SetAttr("strategy", "hash join")
	c.Finish()
	b.Finish()
	tr.Finish()

	exp := tr.Export()
	if exp.Name != "query" || len(exp.Children) != 2 {
		t.Fatalf("export shape wrong: %+v", exp)
	}
	if exp.Children[1].Attrs["rows"] != 42 {
		t.Errorf("attr lost: %+v", exp.Children[1].Attrs)
	}
	if exp.Children[1].Children[0].Attrs["strategy"] != "hash join" {
		t.Errorf("nested attr lost")
	}
	// The export must round-trip through JSON (the /api/traces/{id} contract).
	data, err := json.Marshal(exp)
	if err != nil {
		t.Fatal(err)
	}
	var back SpanJSON
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "query" {
		t.Errorf("round-trip lost name")
	}

	tree := tr.Tree()
	for _, want := range []string{"query", "parse", "match", "scan", "strategy=hash join", "rows=42"} {
		if !strings.Contains(tree, want) {
			t.Errorf("Tree() missing %q:\n%s", want, tree)
		}
	}
	if sum := tr.Summary(); !strings.Contains(sum, "query=") || !strings.Contains(sum, "match=") {
		t.Errorf("Summary() = %q", sum)
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	tr.Finish()
	if tr.Tree() != "" || tr.Summary() != "" {
		t.Error("nil trace must render empty")
	}
	var s *Span
	s2 := s.StartChild("x")
	if s2 != nil {
		t.Fatal("nil span must return nil child")
	}
	s2.SetAttr("k", 1)
	s2.Finish()
	if s2.Duration() != 0 {
		t.Error("nil span accessors must be inert")
	}
}

func TestTraceChildCap(t *testing.T) {
	tr := NewTrace("root")
	for i := 0; i < maxChildren+10; i++ {
		tr.Root().StartChild("c").Finish()
	}
	exp := tr.Export()
	if len(exp.Children) != maxChildren {
		t.Fatalf("children = %d, want cap %d", len(exp.Children), maxChildren)
	}
	if exp.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", exp.Dropped)
	}
}

func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	reg := NewRegistry()
	l := NewSlowQueryLog(logger, 10*time.Millisecond, reg)
	l.Observe(QueryRecord{Kind: "sparql", Query: "SELECT fast", FingerprintID: "fp1", RequestID: "req-fast", Duration: time.Millisecond})
	if buf.Len() != 0 {
		t.Fatalf("fast query logged: %s", buf.String())
	}
	tr := NewTrace("sparql")
	tr.Finish()
	l.Observe(QueryRecord{Kind: "sparql", Query: "SELECT slow", FingerprintID: "fp1", RequestID: "req-slow", Duration: 50 * time.Millisecond, Trace: tr})
	out := buf.String()
	if !strings.Contains(out, "slow query") || !strings.Contains(out, "SELECT slow") {
		t.Fatalf("slow query not logged: %s", out)
	}
	if !strings.Contains(out, "fingerprint=fp1") {
		t.Fatalf("fingerprint missing from slow-query record: %s", out)
	}
	if !strings.Contains(out, "request_id=req-slow") {
		t.Fatalf("request id missing from slow-query record: %s", out)
	}
	// A pathological multi-KB query is truncated to a bounded length,
	// without splitting the trailing multi-byte rune.
	buf.Reset()
	l.Observe(QueryRecord{Kind: "sparql", Query: strings.Repeat("é", 2000), FingerprintID: "fp2", Duration: 50 * time.Millisecond})
	out = buf.String()
	if len(out) > 2*maxLoggedQuery {
		t.Fatalf("oversized query not truncated: %d bytes", len(out))
	}
	if !strings.Contains(out, "…") {
		t.Fatalf("truncation marker missing: %s", out)
	}
	if got := reg.Counter("rdfa_slow_queries_total").Value(); got != 2 {
		t.Fatalf("slow counter = %d, want 2", got)
	}
	// Disabled and nil logs are inert.
	if NewSlowQueryLog(logger, 0, reg) != nil {
		t.Error("threshold 0 must disable")
	}
	var nilLog *SlowQueryLog
	nilLog.Observe(QueryRecord{Kind: "x", Query: "y", Duration: time.Hour})
	if nilLog.Threshold() != 0 {
		t.Error("nil log threshold must be 0")
	}
}
