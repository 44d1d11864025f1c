package sparql

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync/atomic"
	"unicode/utf8"
	"unsafe"

	"rdfanalytics/internal/rdf"
)

// Binding is one solution as a map: variable name -> bound term, absent keys
// unbound. The evaluator and Results work on positional rows; the map form
// is what the exported test hook OrderComparator takes.
type Binding map[string]rdf.Term

// Results is a SELECT result table.
type Results struct {
	// Vars is the projection, in declaration order.
	Vars []string
	// Rows holds one row per solution, positional by Vars; the zero Term
	// marks an unbound variable. The rows of an evaluated query are views
	// into one flat term table.
	Rows [][]rdf.Term
}

// Len returns the number of solution rows.
func (r *Results) Len() int { return len(r.Rows) }

// Get returns the term bound to v in row i (zero Term when unbound).
func (r *Results) Get(i int, v string) rdf.Term {
	if j := slices.Index(r.Vars, v); j >= 0 {
		return r.Rows[i][j]
	}
	return rdf.Term{}
}

// Column returns all values of one variable, in row order; unbound positions
// hold the zero Term.
func (r *Results) Column(v string) []rdf.Term {
	out := make([]rdf.Term, len(r.Rows))
	if j := slices.Index(r.Vars, v); j >= 0 {
		for i, row := range r.Rows {
			out[i] = row[j]
		}
	}
	return out
}

// Sort orders rows by the projected variables (term order), making result
// tables deterministic for tests and serialization.
func (r *Results) Sort() {
	slices.SortStableFunc(r.Rows, func(x, y []rdf.Term) int {
		for k, a := range x {
			if c := termOrder(a, y[k]); c != 0 {
				return c
			}
		}
		return 0
	})
}

// termOrder is the one comparison of Results.Sort and Table.Sort: 0 for
// equal terms, otherwise Term.Less decides. Term.Less is no strict weak order
// (10 < "9" by value, "9" < 9.5 by value, 9.5 < 10 by number), so the two
// sorts agree on a permutation only because both are the same stable sort
// asking this function the same questions.
func termOrder(a, b rdf.Term) int {
	switch {
	case a == b:
		return 0
	case a.Less(b):
		return -1
	}
	return 1
}

// String renders the results as an aligned text table (debug/REPL helper).
func (r *Results) String() string {
	var sb strings.Builder
	widths := make([]int, len(r.Vars))
	cells := make([][]string, len(r.Rows))
	for i, v := range r.Vars {
		widths[i] = len(v) + 1
	}
	for i, row := range r.Rows {
		cells[i] = make([]string, len(r.Vars))
		for j := range r.Vars {
			s := ""
			if t := row[j]; !t.IsZero() {
				s = displayTerm(t)
			}
			cells[i][j] = s
			if len(s) > widths[j] {
				widths[j] = len(s)
			}
		}
	}
	for j, v := range r.Vars {
		fmt.Fprintf(&sb, "%-*s ", widths[j], "?"+v)
	}
	sb.WriteByte('\n')
	for j := range r.Vars {
		sb.WriteString(strings.Repeat("-", widths[j]))
		sb.WriteByte(' ')
	}
	sb.WriteByte('\n')
	for _, row := range cells {
		for j, c := range row {
			fmt.Fprintf(&sb, "%-*s ", widths[j], c)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func displayTerm(t rdf.Term) string {
	switch t.Kind {
	case rdf.KindIRI:
		return t.LocalName()
	case rdf.KindBlank:
		return "_:" + t.Value
	default:
		return t.Value
	}
}

// WriteJSON writes the results in the SPARQL 1.1 JSON results format.
//
// Deprecated: a SELECT's body is its Table's (Table.JSON); this stays while
// benchmark/trace.go measures it (ROADMAP 1a).
func (r *Results) WriteJSON(w io.Writer) error {
	row := func(i int) []rdf.Term { return r.Rows[i] }
	_, err := w.Write(renderJSON(newJSONLayout(r.Vars, len(r.Rows), row), len(r.Rows), row))
	return err
}

// Table is a SELECT's answer as evaluation leaves it: one row of dictionary
// IDs per solution, positional by Vars, 0 = unbound. IDs decode through the
// graph's dictionary, and a computed value's through the evaluation's
// scratch terms. Its writers encode the response bodies straight from the
// IDs; Results is the decoded table, for callers that work on terms.
type Table struct {
	// Vars is the projection, in declaration order.
	Vars    []string
	rows    *batch // max(1, len(Vars)) wide
	g       *rdf.Graph
	scratch []rdf.Term                 // the evaluation's termDict.scratch
	plan    atomic.Pointer[jsonLayout] // made by the first JSON, JSONSize or WriteJSON
}

// Len returns the number of solution rows.
func (t *Table) Len() int { return t.rows.n() }

// term decodes one cell's ID: the zero Term when unbound.
func (t *Table) term(v rdf.TermView, id rdf.ID) rdf.Term {
	switch {
	case id == 0:
		return rdf.Term{}
	case id&scratchBit != 0:
		return t.scratch[id&^scratchBit]
	}
	return v.Term(id)
}

// Decoder returns row(i), which decodes row i into a buffer the next call
// reuses. It reads the dictionary through one view (Graph.TermView), so
// the graph's lock is not held while the table is worked on.
func (t *Table) Decoder() func(i int) []rdf.Term {
	v, buf := t.g.TermView(), make([]rdf.Term, len(t.Vars))
	return func(i int) []rdf.Term {
		for j, id := range t.rows.row(i)[:len(buf)] {
			buf[j] = t.term(v, id)
		}
		return buf
	}
}

// Project returns the table of t's columns named vars, in that order, but
// for names t lacks: the same IDs, decoded through its graph and scratch.
func (t *Table) Project(vars []string) *Table {
	out := &Table{g: t.g, scratch: t.scratch}
	var cols []int
	for _, v := range vars {
		if j := slices.Index(t.Vars, v); j >= 0 {
			out.Vars, cols = append(out.Vars, v), append(cols, j)
		}
	}
	n, w := t.Len(), max(1, len(cols))
	out.rows = &batch{width: w, vals: make([]rdf.ID, n*w)}
	for j, c := range cols {
		for i := range n {
			out.rows.vals[i*w+j] = t.rows.vals[i*t.rows.width+c]
		}
	}
	return out
}

// Bytes returns what the table holds beyond the graph it decodes through:
// its ID rows at their capacity and its evaluation's scratch terms.
func (t *Table) Bytes() int64 {
	n := cap(t.rows.vals)*int(unsafe.Sizeof(rdf.ID(0))) + cap(t.scratch)*int(unsafe.Sizeof(rdf.Term{}))
	for i := range t.scratch {
		n += len(t.scratch[i].Value)
	}
	return int64(n)
}

// Results decodes the table: the one place a SELECT's IDs become terms. The
// rows are views into one flat term table.
func (t *Table) Results() *Results {
	res := &Results{Vars: t.Vars, Rows: make([][]rdf.Term, t.Len())}
	if len(t.Vars) == 0 {
		return res
	}
	w, row := len(t.Vars), t.Decoder()
	cells := make([]rdf.Term, len(res.Rows)*w)
	for i := range res.Rows {
		res.Rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
		copy(res.Rows[i], row(i))
	}
	return res
}

// Sort orders the rows as Results.Sort orders the decoded ones, into the
// same permutation: the same stable sort, over row numbers, asking
// termOrder the same questions. Equal IDs are equal terms; only cells whose
// IDs differ are decoded.
func (t *Table) Sort() {
	perm := make([]int32, t.Len())
	for i := range perm {
		perm[i] = int32(i)
	}
	v := t.g.TermView()
	slices.SortStableFunc(perm, func(a, b int32) int {
		x, y := t.rows.row(int(a)), t.rows.row(int(b))
		for k := range t.Vars {
			if x[k] != y[k] {
				if c := termOrder(t.term(v, x[k]), t.term(v, y[k])); c != 0 {
					return c
				}
			}
		}
		return 0
	})
	sorted := make([]rdf.ID, 0, len(t.rows.vals))
	for _, i := range perm {
		sorted = append(sorted, t.rows.row(int(i))...)
	}
	t.rows.vals = sorted
}

// layout returns the table's JSON layout, made once with row, which
// decodes the table, and kept. Goroutines that race to make it make equal
// layouts; either is kept.
func (t *Table) layout(row func(i int) []rdf.Term) *jsonLayout {
	if l := t.plan.Load(); l != nil {
		return l
	}
	l := newJSONLayout(t.Vars, t.Len(), row)
	t.plan.Store(l)
	return l
}

// JSON returns the table in the SPARQL 1.1 JSON results format (jsonLayout)
// in one slice of exactly JSONSize bytes: the body a stored answer keeps.
func (t *Table) JSON() []byte {
	row := t.Decoder()
	return renderJSON(t.layout(row), t.Len(), row)
}

// JSONSize returns len(t.JSON()) without rendering it. The layout it counts
// with is kept, so JSON and WriteJSON do not count again; a table whose
// JSON several goroutines write has its size taken first.
func (t *Table) JSONSize() int {
	if l := t.plan.Load(); l != nil {
		return l.size
	}
	return t.layout(t.Decoder()).size
}

// WriteJSON writes the bytes of t.JSON() to w through chunk, the caller's
// buffer, which is written out each time it fills: no buffer of the body's
// size is allocated. A chunk of less than 64 bytes' capacity is replaced by
// one of 64. It returns the first write error; the rest of the body is
// dropped after one.
func (t *Table) WriteJSON(w io.Writer, chunk []byte) error {
	if cap(chunk) < minJSONChunk {
		chunk = make([]byte, 0, minJSONChunk)
	}
	row := t.Decoder()
	s := jsonSink{b: chunk[:0], w: w}
	t.layout(row).render(&s, t.Len(), row)
	s.flush()
	return s.err
}

// WriteCSV writes the table as CSV with a header row of variable names.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Vars); err != nil {
		return err
	}
	rec, row := make([]string, len(t.Vars)), t.Decoder()
	for i, n := 0, t.Len(); i < n; i++ {
		for j, c := range row(i) {
			rec[j] = c.Value
			if c.Kind == rdf.KindBlank {
				rec[j] = "_:" + c.Value
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// jsonLayout is what rendering a SELECT's JSON body needs before its first
// byte: one column per distinct variable, in key order, with its rendered
// key, the head, and the body's exact size. The bytes are what encoding/json
// produces for the SPARQL 1.1 JSON results format's natural struct-and-map
// document — per-binding keys in sorted order, unbound variables omitted,
// `<`, `>`, `&`, U+2028 and U+2029 escaped, invalid UTF-8 replaced by
// U+FFFD, a trailing newline — so every recorded response digest stays
// valid; FuzzJSONString holds the string escaper, and the count to the
// escaper, to json.Encoder.
type jsonLayout struct {
	cols []jsonColumn
	head string
	size int
}

type jsonColumn struct {
	idx int
	key string // "name":{"type":"
}

const jsonTail, jsonValueKey = "]}}\n", `","value":`

var jsonKinds = [...]string{rdf.KindIRI: "uri", rdf.KindBlank: "bnode", rdf.KindLiteral: "literal"}

// jsonNote is the member carrying a literal's language or datatype, if it
// has one.
func jsonNote(t *rdf.Term) (key, value string) {
	switch {
	case t.Kind != rdf.KindLiteral:
	case t.Lang != "":
		return `,"xml:lang":`, t.Lang
	case t.Datatype != "" && t.Datatype != rdf.XSDString:
		return `,"datatype":`, t.Datatype
	}
	return "", ""
}

// newJSONLayout plans the columns of n solution rows over vars — row(i) is
// row i's terms, the zero Term where a variable is unbound — and counts the
// body's bytes. The head and the column keys are rendered into one string.
func newJSONLayout(vars []string, n int, row func(i int) []rdf.Term) *jsonLayout {
	l := &jsonLayout{cols: make([]jsonColumn, 0, len(vars))}
	text := append(make([]byte, 0, 64), `{"head":{"vars":`...)
	if vars == nil {
		text = append(text, "null"...) // as encoding/json writes a nil slice
	} else {
		text = append(text, '[')
		for i, v := range vars {
			if i > 0 {
				text = append(text, ',')
			}
			text = AppendJSONString(text, v)
		}
		text = append(text, ']')
	}
	text = append(text, `},"results":{"bindings":[`...)
	headLen, ends := len(text), make([]int, 0, len(vars))
	for i, v := range vars {
		if slices.Index(vars, v) == i {
			text = append(AppendJSONString(text, v), `:{"type":"`...)
			l.cols = append(l.cols, jsonColumn{idx: i})
			ends = append(ends, len(text))
		}
	}
	all := string(text)
	l.head = all[:headLen]
	from := headLen
	for i, end := range ends {
		l.cols[i].key, from = all[from:end], end
	}
	slices.SortFunc(l.cols, func(a, b jsonColumn) int { return strings.Compare(vars[a.idx], vars[b.idx]) })

	size := len(l.head) + len(jsonTail) + max(n-1, 0) // with the commas between rows
	for i := 0; i < n; i++ {
		empty := len(`{`)
		r := row(i)
		for _, c := range l.cols {
			if t := &r[c.idx]; !t.IsZero() {
				noteKey, noteValue := jsonNote(t)
				// One byte before every binding, the brace or a comma.
				size += 1 + len(c.key) + len(jsonKinds[t.Kind]) + len(jsonValueKey) + jsonStringLen(t.Value) + len(noteKey) + len(`}`)
				if noteKey != "" {
					size += jsonStringLen(noteValue)
				}
				empty = 0
			}
		}
		size += empty + len(`}`)
	}
	l.size = size
	return l
}

// render writes the body of the n rows l was planned over into s.
func (l *jsonLayout) render(s *jsonSink, n int, row func(i int) []rdf.Term) {
	s.raw(l.head)
	for i := 0; i < n; i++ {
		if i > 0 {
			s.raw(",")
		}
		s.raw("{")
		r, sep := row(i), ""
		for _, c := range l.cols {
			t := &r[c.idx]
			if t.IsZero() {
				continue
			}
			s.raw(sep)
			sep = ","
			s.raw(c.key)
			s.raw(jsonKinds[t.Kind])
			s.raw(jsonValueKey)
			s.str(t.Value)
			if noteKey, noteValue := jsonNote(t); noteKey != "" {
				s.raw(noteKey)
				s.str(noteValue)
			}
			s.raw("}")
		}
		s.raw("}")
	}
	s.raw(jsonTail)
}

// renderJSON renders the n rows l was planned over into one slice of the
// body's exact size.
func renderJSON(l *jsonLayout, n int, row func(i int) []rdf.Term) []byte {
	s := jsonSink{b: make([]byte, 0, l.size)}
	l.render(&s, n, row)
	return s.b
}

// minJSONChunk is the smallest chunk Table.WriteJSON renders into: room for
// a few escaped characters of a string cut in pieces.
const minJSONChunk = 64

// jsonSink is where a layout renders: one slice of the body's exact size (w
// nil), or a chunk that is written to w each time the next piece would not
// fit in it. After a failed write the rest of the body is dropped.
type jsonSink struct {
	b   []byte
	w   io.Writer
	err error
}

func (s *jsonSink) flush() {
	if s.err == nil && len(s.b) > 0 {
		_, s.err = s.w.Write(s.b)
	}
	s.b = s.b[:0]
}

// raw appends p; into a chunk, in pieces if it does not fit.
func (s *jsonSink) raw(p string) {
	for s.w != nil && len(p) > cap(s.b)-len(s.b) {
		n := copy(s.b[len(s.b):cap(s.b)], p)
		s.b, p = s.b[:len(s.b)+n], p[n:]
		s.flush()
	}
	s.b = append(s.b, p...)
}

// str appends v as a JSON string literal (AppendJSONString). Escaping writes
// at most six bytes a byte; a value that might not fit in what is left of a
// chunk is escaped in pieces, each cut where cutChars says escaping apart
// writes what escaping whole does.
func (s *jsonSink) str(v string) {
	if s.w == nil || len(`""`)+6*len(v) <= cap(s.b)-len(s.b) {
		s.b = AppendJSONString(s.b, v)
		return
	}
	s.raw(`"`)
	for v != "" {
		if (cap(s.b)-len(s.b))/6 < utf8.UTFMax {
			s.flush()
		}
		n := cutChars(v, (cap(s.b)-len(s.b))/6)
		s.b = appendJSONChars(s.b, v[:n])
		v = v[n:]
	}
	s.raw(`"`)
}

// cutChars returns where to cut v at most n bytes in (n >= utf8.UTFMax) so
// that the escaper reads both parts as it reads v: before a byte that
// starts a character, or else at n, after three continuation bytes — no
// character's first byte reaches past three.
func cutChars(v string, n int) int {
	if n >= len(v) {
		return len(v)
	}
	for k := n; k > n-utf8.UTFMax; k-- {
		if utf8.RuneStart(v[k]) {
			return k
		}
	}
	return n
}

const jsonHex = "0123456789abcdef"

// jsonEscape says what encoding/json, HTML escaping on, does with a byte of a
// string: 0 copies it, utf8.RuneSelf marks the bytes of a multi-byte sequence
// (judged as a rune), anything else is the character after the backslash —
// 'u' for the six-byte \u00XX form.
var jsonEscape = func() (t [256]byte) {
	for b := range t {
		switch {
		case b >= utf8.RuneSelf:
			t[b] = utf8.RuneSelf
		case b < 0x20, b == '<', b == '>', b == '&':
			t[b] = 'u'
		}
	}
	t['"'], t['\\'] = '"', '\\'
	t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = 'b', 'f', 'n', 'r', 't'
	return t
}()

// AppendJSONString appends s as a JSON string literal, escaped exactly as
// encoding/json escapes strings with HTML escaping on. It is the one string
// escaper of every hand-written JSON body: these results and the server's
// interaction API.
func AppendJSONString(dst []byte, s string) []byte {
	return append(appendJSONChars(append(dst, '"'), s), '"')
}

// appendJSONChars appends s escaped as AppendJSONString escapes it, without
// the quotes.
func appendJSONChars(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		switch esc := jsonEscape[s[i]]; esc {
		case 0:
		case utf8.RuneSelf:
			c, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case c == utf8.RuneError && size == 1:
				dst = append(append(dst, s[start:i]...), `\ufffd`...)
				start = i + size
			case c == '\u2028' || c == '\u2029':
				dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', jsonHex[c&0xF])
				start = i + size
			}
			i += size - 1
		default:
			dst = append(append(dst, s[start:i]...), '\\', esc)
			if esc == 'u' {
				dst = append(dst, '0', '0', jsonHex[s[i]>>4], jsonHex[s[i]&0xF])
			}
			start = i + 1
		}
	}
	return append(dst, s[start:]...)
}

// jsonStringLen is len(AppendJSONString(nil, s)) without the rendering.
func jsonStringLen(s string) int {
	n := len(s) + len(`""`)
	for i := 0; i < len(s); i++ {
		switch jsonEscape[s[i]] {
		case 0:
		case utf8.RuneSelf:
			c, size := utf8.DecodeRuneInString(s[i:])
			if c == utf8.RuneError && size == 1 || c == '\u2028' || c == '\u2029' {
				n += len(`\ufffd`) - size
			}
			i += size - 1
		case 'u':
			n += len(`\u0000`) - 1
		default:
			n++
		}
	}
	return n
}

// ParseJSONResults parses the SPARQL 1.1 JSON results format back into
// Results (used by the HTTP client side of the endpoint tests).
func ParseJSONResults(r io.Reader) (*Results, error) {
	var doc struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]struct {
				Type     string `json:"type"`
				Value    string `json:"value"`
				Datatype string `json:"datatype"`
				Lang     string `json:"xml:lang"`
			} `json:"bindings"`
		} `json:"results"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, err
	}
	out := &Results{Vars: doc.Head.Vars}
	for _, jb := range doc.Results.Bindings {
		row := make([]rdf.Term, len(out.Vars))
		for i, v := range out.Vars {
			jt, bound := jb[v]
			switch {
			case !bound:
			case jt.Type == "uri":
				row[i] = rdf.NewIRI(jt.Value)
			case jt.Type == "bnode":
				row[i] = rdf.NewBlank(jt.Value)
			case jt.Lang != "":
				row[i] = rdf.NewLangString(jt.Value, jt.Lang)
			case jt.Datatype != "":
				row[i] = rdf.NewTyped(jt.Value, jt.Datatype)
			default:
				row[i] = rdf.NewString(jt.Value)
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
