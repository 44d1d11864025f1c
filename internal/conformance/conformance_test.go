package conformance

import (
	"fmt"
	"sort"
	"testing"
)

// minCorpusCases is the floor the corpus must not shrink below (the harness
// is only as good as its coverage; deleting cases should hurt).
const minCorpusCases = 84

// TestCorpus runs every testdata case against the engine and prints a
// per-category pass/fail table.
func TestCorpus(t *testing.T) {
	cases, err := LoadCases("testdata")
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) < minCorpusCases {
		t.Fatalf("corpus has %d cases, want >= %d", len(cases), minCorpusCases)
	}
	type tally struct{ pass, fail int }
	perCat := map[string]*tally{}
	for _, c := range cases {
		c := c
		if perCat[c.Category] == nil {
			perCat[c.Category] = &tally{}
		}
		ok := t.Run(c.Category+"/"+c.Name, func(t *testing.T) {
			if err := c.Run(); err != nil {
				t.Error(err)
			}
		})
		if ok {
			perCat[c.Category].pass++
		} else {
			perCat[c.Category].fail++
		}
	}
	cats := make([]string, 0, len(perCat))
	for c := range perCat {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	total := tally{}
	summary := "\nconformance corpus results:\n"
	for _, c := range cats {
		tl := perCat[c]
		summary += fmt.Sprintf("  %-12s %3d pass  %3d fail\n", c, tl.pass, tl.fail)
		total.pass += tl.pass
		total.fail += tl.fail
	}
	summary += fmt.Sprintf("  %-12s %3d pass  %3d fail\n", "TOTAL", total.pass, total.fail)
	t.Log(summary)
}
