package resilience

import (
	"testing"
)

// FuzzCacheKey checks key injectivity: two keys are equal iff their
// namespaces and texts are, and an entry stored under one key never shows
// under another. The property guards the invariants that queries differing
// only in a constant, datatype, language tag or timezone never share an
// entry, and that no query text can name an analytic run's entry.
func FuzzCacheKey(f *testing.F) {
	f.Add("", `SELECT ?s WHERE { ?s <p> "100" }`, "", `SELECT ?s WHERE { ?s <p> "200" }`)
	f.Add("", `ASK { ?s <p> "2020-01-01T00:00:00Z"^^xsd:dateTime }`, "", `ASK { ?s <p> "2020-01-01T00:00:00+00:00"^^xsd:dateTime }`)
	f.Add("analytics", `laptops by manufacturer`, "", `laptops by manufacturer`)
	f.Add("a", "\x00b", "a\x00", "b")
	f.Fuzz(func(t *testing.T, ns1, text1, ns2, text2 string) {
		k1, k2 := Key{Namespace: ns1, Text: text1}, Key{Namespace: ns2, Text: text2}
		if same := ns1 == ns2 && text1 == text2; (k1 == k2) != same {
			t.Fatalf("Key{%q,%q} == Key{%q,%q} is %v, want %v", ns1, text1, ns2, text2, k1 == k2, same)
		}

		// Distinct keys behave as distinct entries end to end: storing under
		// k1 never makes anything visible under k2.
		c := NewAnswerCache(1<<20, 0, nil)
		stored := &Answer{Body: []byte("a1"), Version: 7}
		c.Put(k1, stored)
		got, ok := c.Get(k2, 7)
		if k1 == k2 && (!ok || got != stored) {
			t.Fatalf("entry stored under %+v not found under the same key", k1)
		}
		if k1 != k2 && ok {
			t.Fatalf("entry stored under %+v shows under %+v", k1, k2)
		}
	})
}
