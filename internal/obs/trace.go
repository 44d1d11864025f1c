package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Trace is one tree of timed spans covering a single logical operation —
// a SPARQL query, an analytic run, an answer reload. Every method on Trace
// and Span is safe on a nil receiver and does nothing: instrumented code
// threads a possibly-nil trace through and pays one pointer test when
// tracing is off.
type Trace struct {
	mu        sync.Mutex
	id        string
	requestID string
	root      Span
}

// maxChildren caps the children recorded under one span, so a span opened
// per item of a loop cannot grow a trace without bound; beyond the cap
// children are counted, not stored.
const maxChildren = 128

// NewTrace starts a trace whose root span is named name, in one
// allocation. Its ID is minted when first read (ID), unless a caller that
// already holds one — the ID the HTTP middleware put on the wire — gives it
// first (SetID).
func NewTrace(name string) *Trace {
	t := &Trace{}
	t.root.name, t.root.start = name, time.Now()
	return t
}

// ID returns the trace's identifier, minting one if it has none ("" for a
// nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.id == "" {
		t.id = NewTraceID()
	}
	return t.id
}

// SetID replaces the trace's identifier. Empty IDs are ignored so callers
// can pass through a possibly-absent upstream ID unconditionally.
func (t *Trace) SetID(id string) {
	if t == nil || id == "" {
		return
	}
	t.mu.Lock()
	t.id = id
	t.mu.Unlock()
}

// SetRequestID names the request the trace serves: its root span's
// "request_id" attribute, ahead of any SetAttr. An empty ID is ignored.
func (t *Trace) SetRequestID(id string) {
	if t == nil || id == "" {
		return
	}
	t.mu.Lock()
	t.requestID = id
	t.mu.Unlock()
}

// Root returns the root span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return &t.root
}

// rootAttrs returns the attributes the root span leads with: the request
// ID, when set.
func (t *Trace) rootAttrs() []Attr {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.requestID == "" {
		return nil
	}
	return []Attr{{Key: "request_id", Val: t.requestID}}
}

// Finish ends the root span.
func (t *Trace) Finish() { t.Root().Finish() }

// Span is one timed node of a trace.
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	dur      time.Duration
	done     bool
	attrs    []Attr
	children []*Span
	dropped  int
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key string
	Val any
}

// StartChild opens a child span. Returns nil (safely usable) when the
// receiver is nil or the child cap is reached.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.children) >= maxChildren {
		s.dropped++
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.children = append(s.children, c)
	return c
}

// AddChild records a child span that has already run: it started at start
// and took dur. It is for work timed before the trace existed. Returns nil
// (safely usable) when the receiver is nil or the child cap is reached.
func (s *Span) AddChild(name string, start time.Time, dur time.Duration) *Span {
	c := s.StartChild(name)
	if c != nil {
		c.start, c.dur, c.done = start, dur, true
	}
	return c
}

// Finish fixes the span's duration; further calls are no-ops.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.dur = time.Since(s.start)
		s.done = true
	}
	s.mu.Unlock()
}

// SetAttr annotates the span. Later values for the same key win at export.
func (s *Span) SetAttr(key string, val any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
	s.mu.Unlock()
}

// Duration returns the span's duration (elapsed-so-far if unfinished).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return s.dur
	}
	return time.Since(s.start)
}

// SpanJSON is the wire form of a span subtree (GET /api/traces/{id}). TraceID is
// populated only at the root of an exported trace.
type SpanJSON struct {
	Name       string         `json:"name"`
	TraceID    string         `json:"trace_id,omitempty"`
	DurationMS float64        `json:"durationMs"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Dropped    int            `json:"droppedChildren,omitempty"`
	Children   []SpanJSON     `json:"children,omitempty"`
}

// Export snapshots the trace as a JSON-marshalable tree.
func (t *Trace) Export() SpanJSON {
	if t == nil {
		return SpanJSON{}
	}
	out := t.root.export(t.rootAttrs())
	out.TraceID = t.ID()
	return out
}

// export snapshots the span's subtree; lead are attributes the span carries
// ahead of its own.
func (s *Span) export(lead []Attr) SpanJSON {
	s.mu.Lock()
	out := SpanJSON{
		Name:       s.name,
		DurationMS: float64(s.durLocked().Microseconds()) / 1000,
		Dropped:    s.dropped,
	}
	if n := len(lead) + len(s.attrs); n > 0 {
		out.Attrs = make(map[string]any, n)
		for _, a := range lead {
			out.Attrs[a.Key] = a.Val
		}
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.Val
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		out.Children = append(out.Children, c.export(nil))
	}
	return out
}

func (s *Span) durLocked() time.Duration {
	if s.done {
		return s.dur
	}
	return time.Since(s.start)
}

// Tree renders the trace as an indented text tree with durations and
// attributes — the -trace output of the CLIs.
func (t *Trace) Tree() string {
	if t == nil {
		return ""
	}
	var sb strings.Builder
	t.root.tree(&sb, 0, t.rootAttrs())
	return sb.String()
}

func (s *Span) tree(sb *strings.Builder, depth int, lead []Attr) {
	s.mu.Lock()
	sb.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(sb, "%s  %s", s.name, fmtDur(s.durLocked()))
	for _, a := range append(lead, s.attrs...) {
		fmt.Fprintf(sb, "  %s=%v", a.Key, a.Val)
	}
	if s.dropped > 0 {
		fmt.Fprintf(sb, "  (+%d children dropped)", s.dropped)
	}
	sb.WriteByte('\n')
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		c.tree(sb, depth+1, nil)
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// Summary renders the root and its immediate children on one line — the
// plan summary attached to slow-query log records.
func (t *Trace) Summary() string {
	if t == nil {
		return ""
	}
	t.root.mu.Lock()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s=%s", t.root.name, fmtDur(t.root.durLocked()))
	children := append([]*Span(nil), t.root.children...)
	t.root.mu.Unlock()
	for _, c := range children {
		c.mu.Lock()
		fmt.Fprintf(&sb, " %s=%s", c.name, fmtDur(c.durLocked()))
		c.mu.Unlock()
	}
	return sb.String()
}
