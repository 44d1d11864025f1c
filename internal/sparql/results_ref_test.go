package sparql

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"slices"
	"sort"

	"rdfanalytics/internal/rdf"
)

// The term-table writers a SELECT's bodies came from before they were
// encoded from ID rows (Table.JSON, Table.WriteCSV), kept verbatim as the
// reference those encoders are held to.

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
			cols = append(cols, column{i, string(AppendJSONString(nil, v)) + `:{"type":"`})
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
			dst = AppendJSONString(dst, t.Value)
			if noteKey, noteValue := note(t); noteKey != "" {
				dst = AppendJSONString(append(dst, noteKey...), noteValue)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, '}')
	}
	return append(dst, tail...)
}
