package server

import (
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"rdfanalytics/internal/core"
	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

// The interaction API's answers (a state, an expansion, an Answer Frame) are
// written straight from the session's values, in the bytes encoding/json
// wrote for the mirror structs state_ref_test.go keeps as the oracle
// (DESIGN.md §5.1, "The wire format").

// A body is appended into one chunkSize buffer, which is written to the
// response whenever an element leaves less than chunkSlack of it free.
const chunkSize, chunkSlack = 32 << 10, 1 << 10

// chunks holds the chunks every streamed body is written through: a state,
// an expansion, a run's frame and a SELECT answer the cache does not keep.
// A chunk holds no pointers, and one that is never put back is ordinary
// garbage.
var chunks = sync.Pool{New: func() any { return new([chunkSize]byte) }}

// bodyWriter appends one JSON body into a pooled chunk and writes the chunk
// to the response each time it fills; with no writer, it appends the whole
// body into b, made at the body's size. After a failed write the rest of the
// body is dropped, as json.Encoder's ignored error did. A key argument is a
// member's separator and name, as in `,"label":`.
type bodyWriter struct {
	w     io.Writer
	b     []byte
	n     int // bytes written to w
	err   error
	chunk *[chunkSize]byte // b's pool entry, given back by end; nil for a caller's buffer
}

func newBodyWriter(w http.ResponseWriter) *bodyWriter {
	setHeader(w, "Content-Type", "application/json")
	chunk := chunks.Get().(*[chunkSize]byte)
	return &bodyWriter{w: w, b: chunk[:0], chunk: chunk}
}

func (c *bodyWriter) raw(s string) { c.b = append(c.b, s...) }
func (c *bodyWriter) str(s string) { c.b = sparql.AppendJSONString(c.b, s) }

func (c *bodyWriter) field(key, s string) {
	c.raw(key)
	c.str(s)
}

// omitEmpty writes a string member unless it is empty, as omitempty does.
func (c *bodyWriter) omitEmpty(key, s string) {
	if s != "" {
		c.field(key, s)
	}
}

func (c *bodyWriter) count(key string, n int) {
	c.raw(key)
	c.b = strconv.AppendInt(c.b, int64(n), 10)
}

// flag writes member (`,"name":true`) when on, as omitempty does for a bool.
func (c *bodyWriter) flag(member string, on bool) {
	if on {
		c.raw(member)
	}
}

func (c *bodyWriter) flush() {
	if c.w == nil {
		return
	}
	if c.err == nil && len(c.b) > 0 {
		_, c.err = c.w.Write(c.b)
		c.n += len(c.b)
	}
	c.b = c.b[:0]
}

// end closes the body with encoding/json's newline, writes what is left and
// gives the chunk back to the pool if it took one.
func (c *bodyWriter) end(closing string) {
	c.raw(closing)
	c.raw("\n")
	c.flush()
	if c.chunk != nil {
		chunks.Put(c.chunk)
		c.b, c.chunk = nil, nil
	}
}

// list writes n elements as an array, sending the chunk out after any
// element that leaves it nearly full. An empty list is null when null is set
// (a nil slice to encoding/json), [] otherwise.
func (c *bodyWriter) list(key string, n int, null bool, elem func(i int)) {
	c.raw(key)
	if n == 0 && null {
		c.raw("null")
		return
	}
	c.raw("[")
	for i := 0; i < n; i++ {
		if i > 0 {
			c.raw(",")
		}
		elem(i)
		if len(c.b) >= chunkSize-chunkSlack {
			c.flush()
		}
	}
	c.raw("]")
}

// term writes an RDF term: kind, value, and datatype, language and display
// label when they are not empty.
func (c *bodyWriter) term(t *rdf.Term) {
	switch t.Kind {
	case rdf.KindIRI:
		c.field(`{"kind":"iri","value":`, t.Value)
	case rdf.KindBlank:
		c.field(`{"kind":"blank","value":`, t.Value)
	default:
		c.field(`{"kind":"literal","value":`, t.Value)
	}
	c.omitEmpty(`,"datatype":`, t.Datatype)
	c.omitEmpty(`,"lang":`, t.Lang)
	c.omitEmpty(`,"label":`, t.LocalName())
	c.raw("}")
}

// values writes facet values with their counts, decoding each through view.
func (c *bodyWriter) values(key string, vs []facet.ValueCount, null bool, view rdf.TermView) {
	var t rdf.Term // decoded in place and passed on by pointer, not copied per value
	c.list(key, len(vs), null, func(i int) {
		c.raw(`{"term":`)
		t = view.Term(vs[i].ID)
		c.term(&t)
		c.count(`,"count":`, int(vs[i].Count))
		c.raw("}")
	})
}

func (c *bodyWriter) classes(key string, nodes []facet.ClassNode) {
	c.list(key, len(nodes), false, func(i int) {
		n := &nodes[i]
		c.field(`{"iri":`, n.Class.Value)
		c.field(`,"label":`, n.Class.LocalName())
		c.count(`,"count":`, n.Count)
		if len(n.Children) > 0 {
			c.classes(`,"children":`, n.Children)
		}
		c.raw("}")
	})
}

// writeState answers with the session's UI state. The state is computed in
// full before the first byte is written, so a failure there still gets a
// clean status.
func writeState(w http.ResponseWriter, sess *core.Session) {
	ui := sess.ComputeUIState(50, true)
	view := sess.Model().G.TermView() // taken after the state: it decodes every ID the state holds
	c := newBodyWriter(w)
	c.field(`{"breadcrumb":`, ui.Breadcrumb)
	c.count(`,"totalObjects":`, ui.TotalObjects)
	c.count(`,"depth":`, ui.Depth)
	c.omitEmpty(`,"hifun":`, ui.HIFUN)
	c.list(`,"objects":`, len(ui.Objects), true, func(i int) {
		o := &ui.Objects[i]
		c.field(`{"iri":`, o.Object.Value)
		c.field(`,"label":`, o.Object.LocalName())
		c.omitEmpty(`,"type":`, o.Type.LocalName()) // "" for an untyped object
		c.raw("}")
	})
	c.classes(`,"classes":`, ui.Classes)
	c.list(`,"facets":`, len(ui.Facets), true, func(i int) {
		f := &ui.Facets[i]
		c.field(`{"p":`, f.P.Value)
		c.field(`,"label":`, f.P.LocalName())
		c.flag(`,"inverse":true`, f.Inverse)
		c.flag(`,"grouped":true`, f.Grouped)
		c.flag(`,"measured":true`, f.Measured)
		c.flag(`,"numeric":true`, f.Numeric)
		c.values(`,"values":`, f.Values, true, view)
		if len(f.Buckets) > 0 {
			c.list(`,"buckets":`, len(f.Buckets), false, func(j int) {
				b := f.Buckets[j]
				c.b = appendJSONFloat(append(c.b, `{"lo":`...), b.Lo)
				c.b = appendJSONFloat(append(c.b, `,"hi":`...), b.Hi)
				c.count(`,"count":`, b.Count)
				c.raw("}")
			})
		}
		c.raw("}")
	})
	a := ui.Analytics
	c.list(`,"analytics":{"groupBy":`, len(a.GroupBy), true, func(i int) { c.str(a.GroupBy[i].String()) })
	if a.Measure.Path != nil || len(a.Ops) > 0 {
		c.omitEmpty(`,"measure":`, a.Measure.String())
	}
	c.list(`,"ops":`, len(a.Ops), true, func(i int) { c.str(a.Ops[i].String()) })
	c.end("}}")
}

// writeValues answers an expansion: {"values":[…]}, [] when there are none.
func writeValues(w http.ResponseWriter, g *rdf.Graph, vals []facet.ValueCount) {
	c := newBodyWriter(w)
	c.values(`{"values":`, vals, false, g.TermView())
	c.end("}")
}

// frameBody is a run's body, its Answer Frame and two queries, counted by a
// pass of the writer that writes it.
type frameBody struct {
	ans        *hifun.Answer
	hifunQuery string
	size       int
}

func newFrameBody(ans *hifun.Answer, hifunQuery string) *frameBody {
	f := &frameBody{ans: ans, hifunQuery: hifunQuery}
	chunk := chunks.Get().(*[chunkSize]byte)
	f.size = f.write(io.Discard, chunk[:0]).n
	chunks.Put(chunk)
	return f
}

func (f *frameBody) JSONSize() int                             { return f.size }
func (f *frameBody) JSON() []byte                              { return f.write(nil, make([]byte, 0, f.size)).b }
func (f *frameBody) WriteJSON(w io.Writer, chunk []byte) error { return f.write(w, chunk).err }

// write writes the body to w through chunk, or into chunk when w is nil,
// decoding the frame's IDs through one view.
func (f *frameBody) write(w io.Writer, chunk []byte) *bodyWriter {
	ans, c := f.ans, &bodyWriter{w: w, b: chunk[:0]}
	// A column list is null only when nil: the frame's slices go out as they are.
	c.list(`{"groupCols":`, len(ans.GroupCols), ans.GroupCols == nil, func(i int) { c.str(ans.GroupCols[i]) })
	c.list(`,"measureCols":`, len(ans.MeasureCols), ans.MeasureCols == nil, func(i int) { c.str(ans.MeasureCols[i]) })
	row := ans.Table.Decoder()
	c.list(`,"rows":`, ans.Table.Len(), true, func(i int) {
		r := row(i)
		c.list("", len(r), false, func(j int) { c.term(&r[j]) })
	})
	c.field(`,"sparql":`, ans.SPARQL)
	c.field(`,"hifun":`, f.hifunQuery)
	c.end("}")
	return c
}

// appendJSONFloat appends a finite f as encoding/json writes a float64: the
// shortest representation in 'f' form, or in 'e' form below 1e-6 and from
// 1e21 with a one-digit negative exponent unpadded (e-07 → e-7).
// FuzzJSONFloat holds it to encoding/json.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
