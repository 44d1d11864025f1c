package rdf

import "testing"

// TestResolveIRI pins ResolveIRI to every example of RFC 3986 §5.4: the
// normal ones (§5.4.1) and the abnormal ones (§5.4.2, strict parser).
func TestResolveIRI(t *testing.T) {
	const base = "http://a/b/c/d;p?q"
	for ref, want := range map[string]string{
		// §5.4.1 normal examples
		"g:h":     "g:h",
		"g":       "http://a/b/c/g",
		"./g":     "http://a/b/c/g",
		"g/":      "http://a/b/c/g/",
		"/g":      "http://a/g",
		"//g":     "http://g",
		"?y":      "http://a/b/c/d;p?y",
		"g?y":     "http://a/b/c/g?y",
		"#s":      "http://a/b/c/d;p?q#s",
		"g#s":     "http://a/b/c/g#s",
		"g?y#s":   "http://a/b/c/g?y#s",
		";x":      "http://a/b/c/;x",
		"g;x":     "http://a/b/c/g;x",
		"g;x?y#s": "http://a/b/c/g;x?y#s",
		"":        "http://a/b/c/d;p?q",
		".":       "http://a/b/c/",
		"./":      "http://a/b/c/",
		"..":      "http://a/b/",
		"../":     "http://a/b/",
		"../g":    "http://a/b/g",
		"../..":   "http://a/",
		"../../":  "http://a/",
		"../../g": "http://a/g",
		// §5.4.2 abnormal examples
		"../../../g":    "http://a/g",
		"../../../../g": "http://a/g",
		"/./g":          "http://a/g",
		"/../g":         "http://a/g",
		"g.":            "http://a/b/c/g.",
		".g":            "http://a/b/c/.g",
		"g..":           "http://a/b/c/g..",
		"..g":           "http://a/b/c/..g",
		"./../g":        "http://a/b/g",
		"./g/.":         "http://a/b/c/g/",
		"g/./h":         "http://a/b/c/g/h",
		"g/../h":        "http://a/b/c/h",
		"g;x=1/./y":     "http://a/b/c/g;x=1/y",
		"g;x=1/../y":    "http://a/b/c/y",
		"g?y/./x":       "http://a/b/c/g?y/./x",
		"g?y/../x":      "http://a/b/c/g?y/../x",
		"g#s/./x":       "http://a/b/c/g#s/./x",
		"g#s/../x":      "http://a/b/c/g#s/../x",
		"http:g":        "http:g",
	} {
		if got := ResolveIRI(base, ref); got != want {
			t.Errorf("ResolveIRI(%q, %q) = %q, want %q", base, ref, got, want)
		}
	}
}

// TestTurtleResolvesAgainstBase: a relative IRI is resolved, not appended
// to the base — under @base <http://ex.org/a/b>, <p> once read
// http://ex.org/a/bp and <../y> http://ex.org/a/b../y.
func TestTurtleResolvesAgainstBase(t *testing.T) {
	g, err := LoadTurtleString(`@base <http://ex.org/a/b> .
<p> <../y> <with space> .`)
	if err != nil {
		t.Fatal(err)
	}
	want := Triple{NewIRI("http://ex.org/a/p"), NewIRI("http://ex.org/y"), NewIRI("http://ex.org/a/with space")}
	if !g.Has(want) {
		t.Errorf("want %v, graph %v", want, g.Triples())
	}
}
