package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// span is one benchmark-side span of the traced pass. Spans of one op share
// Op; Parent is the ID of the span that caused this one (0 for the root).
// Times are nanoseconds since the recorder was created.
type span struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent"`
	Name    string         `json:"name"`
	Op      int            `json:"op"`
	StartNS int64          `json:"start_ns"`
	EndNS   int64          `json:"end_ns"`
	SelfNS  int64          `json:"self_ns"` // filled by fillSelf when the file is written
	Attrs   map[string]any `json:"attrs,omitempty"`
}

func (s *span) durMS() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// recorder keeps spans in memory until the run ends. The traced pass is
// single-threaded, so it needs no lock.
type recorder struct {
	t0    time.Time
	spans []*span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span; end closes it.
func (r *recorder) start(op, parent int, name string) *span {
	s := &span{ID: len(r.spans) + 1, Parent: parent, Name: name, Op: op, Attrs: map[string]any{}}
	r.spans = append(r.spans, s)
	s.StartNS = time.Since(r.t0).Nanoseconds()
	return s
}

func (r *recorder) end(s *span) { s.EndNS = time.Since(r.t0).Nanoseconds() }

// measure runs fn inside a span and attaches the allocation delta. The two
// MemStats reads sit outside the timed interval.
func (r *recorder) measure(op, parent int, name string, fn func()) *span {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := r.start(op, parent, name)
	fn()
	r.end(s)
	runtime.ReadMemStats(&after)
	s.Attrs["allocs"] = after.Mallocs - before.Mallocs
	s.Attrs["alloc_bytes"] = after.TotalAlloc - before.TotalAlloc
	return s
}

// selfNS is a span's duration minus the part of its interval that its
// direct children cover. Children may overlap each other or stick out of
// the parent; only the union of their intervals inside the parent counts.
func selfNS(parent *span, children []*span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.StartNS, parent.StartNS), min(c.EndNS, parent.EndNS)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, end int64
	end = parent.StartNS
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		covered += v.hi - max(v.lo, end)
		end = v.hi
	}
	return parent.EndNS - parent.StartNS - covered
}

// durations collects, per span name, the duration in milliseconds of every
// span of that name, in recording order.
func (r *recorder) durations() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range r.spans {
		out[s.Name] = append(out[s.Name], s.durMS())
	}
	return out
}

// fillSelf sets every span's self time.
func (r *recorder) fillSelf() {
	kids := map[int][]*span{}
	for _, s := range r.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	for _, s := range r.spans {
		s.SelfNS = selfNS(s, kids[s.ID])
	}
}

// attrs collects a numeric attribute per span name.
func (r *recorder) attrs(name, key string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name != name {
			continue
		}
		switch v := s.Attrs[key].(type) {
		case uint64:
			out = append(out, float64(v))
		case int:
			out = append(out, float64(v))
		case float64:
			out = append(out, v)
		}
	}
	return out
}

// traceFile is what -trace 1 writes: the run's record and every span.
type traceFile struct {
	Record record  `json:"record"`
	Spans  []*span `json:"spans"`
}

func (r *recorder) write(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	r.fillSelf()
	b, err := json.Marshal(traceFile{Record: rec, Spans: r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
