package sparql

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParse drives the SPARQL query parser with arbitrary input: whatever
// the bytes, Parse must return a value or an error — never panic, never
// hang. The seeds cover every query form and the trickier grammar corners
// (paths, aggregates, subqueries, escapes).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT * WHERE { ?s ?p ?o }",
		"SELECT ?s WHERE { ?s a <http://e/C> . FILTER(?s != <http://e/x>) }",
		"PREFIX ex: <http://e/> SELECT (COUNT(*) AS ?n) WHERE { ?s ex:p ?o } GROUP BY ?o HAVING(COUNT(*) > 1)",
		"ASK { ?s ?p ?o }",
		"CONSTRUCT { ?s <http://e/q> ?o } WHERE { ?s <http://e/p> ?o }",
		"DESCRIBE <http://e/x>",
		"SELECT ?x WHERE { ?x (<http://e/p>/<http://e/q>)+ ?y }",
		"SELECT ?x WHERE { ?x ^<http://e/p>|<http://e/q>* ?y }",
		"SELECT * WHERE { { SELECT ?s WHERE { ?s ?p ?o } LIMIT 5 } ?s ?q ?v }",
		"SELECT * WHERE { ?s ?p ?o . OPTIONAL { ?s <http://e/q> ?v } MINUS { ?s <http://e/r> ?w } }",
		"SELECT * WHERE { VALUES ?x { 1 2.5 \"str\"@en \"t\"^^<http://www.w3.org/2001/XMLSchema#date> } }",
		"SELECT * WHERE { ?s ?p \"a\\\"b\\nc\" } ORDER BY DESC(?s) LIMIT 10 OFFSET 2",
		"SELECT * WHERE { BIND(1+2*3 AS ?x) FILTER EXISTS { ?a ?b ?c } }",
		"SELECT ?x WHERE { ?x <http://e/at> \"2021-06-01T23:00:00+05:00\"^^<http://www.w3.org/2001/XMLSchema#dateTime> } ORDER BY ?x",
		"SELECT ?x WHERE { ?x <http://e/d> ?d . FILTER(?d >= \"2021-01-10\"^^<http://www.w3.org/2001/XMLSchema#date>) } ORDER BY DESC(?d)",
		"SELECT (MIN(?v) AS ?m) (MAX(?v) AS ?x) (COUNT(*) AS ?n) WHERE { ?s <http://e/none> ?v }",
		"SELECT ?g WHERE { ?s <http://e/p> ?g . OPTIONAL { ?s <http://e/q> ?v } } GROUP BY ?g ORDER BY DESC(SUM(?v)) ?g",
		"SELECT * WHERE {",
		"SELECT ?x WHERE { ?x <p ?y }",
		"PREFIX : <u> SELECT * WHERE { :a :b :c }",
		"",
		"\x00\xff{",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err == nil && q == nil {
			t.Fatalf("Parse(%q) returned nil query and nil error", src)
		}
	})
}

// FuzzParseUpdate fuzzes the SPARQL update grammar the same way.
func FuzzParseUpdate(f *testing.F) {
	seeds := []string{
		"INSERT DATA { <http://e/s> <http://e/p> 1 }",
		"DELETE DATA { <http://e/s> <http://e/p> \"x\" }",
		"DELETE WHERE { ?s <http://e/p> ?o }",
		"DELETE { ?s ?p ?o } INSERT { ?s ?p 2 } WHERE { ?s ?p ?o }",
		"CLEAR ALL",
		"PREFIX ex: <http://e/> INSERT DATA { ex:s ex:p ex:o }",
		"INSERT DATA {",
		"DELETE",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		u, err := ParseUpdate(src)
		if err == nil && u == nil {
			t.Fatalf("ParseUpdate(%q) returned nil update and nil error", src)
		}
	})
}

// FuzzJSONString holds the hand-written JSON string escaper of the results
// serializer and the server's state writer to encoding/json's (HTML escaping on, the Encoder default) for
// arbitrary byte strings: control characters, `<>&`, U+2028/U+2029 and
// invalid UTF-8 included. Byte-identical response bodies rest on it.
func FuzzJSONString(f *testing.F) {
	for _, s := range []string{
		"", "plain", `q"uo\te`, "tab\tnl\ncr\rbs\bff\f", "\x00\x01\x1f\x7f", "<b>&amp;</b>",
		"line\u2028sep\u2029", "caf\u00e9 \u65e5\u672c \U0001F600", "bad\xff\xfe utf8 \xe2\x80", "\xed\xa0\x80",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(s); err != nil {
			t.Skip(err)
		}
		got := append(AppendJSONString(nil, s), '\n')
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("AppendJSONString(%q) = %s, encoding/json writes %s", s, got, want.Bytes())
		}
		if n := jsonStringLen(s); n != len(got)-1 {
			t.Fatalf("jsonStringLen(%q) = %d, AppendJSONString writes %d bytes", s, n, len(got)-1)
		}
	})
}
