package sparql

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"

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
			if b := y[k]; a != b {
				if a.Less(b) {
					return -1
				}
				return 1
			}
		}
		return 0
	})
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

// WriteCSV writes the results as CSV with a header row of variable names.
func (r *Results) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Vars); err != nil {
		return err
	}
	for _, row := range r.Rows {
		rec := make([]string, len(r.Vars))
		for i, t := range row {
			rec[i] = t.Value
			if t.Kind == rdf.KindBlank {
				rec[i] = "_:" + t.Value
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON writes the results in the SPARQL 1.1 JSON results format.
func (r *Results) WriteJSON(w io.Writer) error {
	_, err := w.Write(r.JSON())
	return err
}

// JSON returns the results in the SPARQL 1.1 JSON results format, in one
// slice allocated at its exact size (rows are measured by counting first,
// then rendered once). The bytes are what encoding/json produces for the
// format's natural struct-and-map document — per-binding keys in sorted
// order, unbound variables omitted, `<`, `>`, `&`, U+2028 and U+2029
// escaped, invalid UTF-8 replaced by U+FFFD, a trailing newline — so every
// recorded response digest stays valid; FuzzJSONString holds the string
// escaper, and the count to the escaper, to json.Encoder.
func (r *Results) JSON() []byte {
	// One column per distinct name, in key order, with its rendered key.
	type column struct {
		idx int
		key string // "name":{"type":"
	}
	var cols []column
	for i, v := range r.Vars {
		if slices.Index(r.Vars, v) == i {
			cols = append(cols, column{i, string(appendJSONString(nil, v)) + `:{"type":"`})
		}
	}
	sort.Slice(cols, func(a, b int) bool { return r.Vars[cols[a].idx] < r.Vars[cols[b].idx] })
	vars, _ := json.Marshal(r.Vars) // null for a nil projection
	head := `{"head":{"vars":` + string(vars) + `},"results":{"bindings":[`
	const tail, valueKey = "]}}\n", `","value":`
	kinds := [...]string{rdf.KindIRI: "uri", rdf.KindBlank: "bnode", rdf.KindLiteral: "literal"}
	// note is the member carrying a literal's language or datatype, if it has one.
	note := func(t rdf.Term) (key, value string) {
		switch {
		case t.Kind != rdf.KindLiteral:
		case t.Lang != "":
			return `,"xml:lang":`, t.Lang
		case t.Datatype != "" && t.Datatype != rdf.XSDString:
			return `,"datatype":`, t.Datatype
		}
		return "", ""
	}
	size := len(head) + len(tail) + max(len(r.Rows)-1, 0) // with the commas between rows
	for _, row := range r.Rows {
		empty := len(`{`)
		for _, c := range cols {
			if t := row[c.idx]; !t.IsZero() {
				noteKey, noteValue := note(t)
				// One byte before every binding, the brace or a comma.
				size += 1 + len(c.key) + len(kinds[t.Kind]) + len(valueKey) + jsonStringLen(t.Value) + len(noteKey) + len(`}`)
				if noteKey != "" {
					size += jsonStringLen(noteValue)
				}
				empty = 0
			}
		}
		size += empty + len(`}`)
	}
	dst := append(make([]byte, 0, size), head...)
	for i, row := range r.Rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '{')
		for _, c := range cols {
			t := row[c.idx]
			if t.IsZero() {
				continue
			}
			if dst[len(dst)-1] != '{' {
				dst = append(dst, ',')
			}
			dst = append(append(append(dst, c.key...), kinds[t.Kind]...), valueKey...)
			dst = appendJSONString(dst, t.Value)
			if noteKey, noteValue := note(t); noteKey != "" {
				dst = appendJSONString(append(dst, noteKey...), noteValue)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, '}')
	}
	return append(dst, tail...)
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

// appendJSONString appends s as a JSON string literal, escaped exactly as
// encoding/json escapes strings with HTML escaping on.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
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
	return append(append(dst, s[start:]...), '"')
}

// jsonStringLen is len(appendJSONString(nil, s)) without the rendering.
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
