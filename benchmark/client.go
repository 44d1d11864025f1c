package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

//go:embed golden/*.json
var goldenFS embed.FS

// golden is the committed answer oracle of one workload: per op key the
// SHA-256 of the canonical answer and of the exact response body the
// defining commit produced. The body digest is the fast path; a body that
// differs is decoded and compared in canonical form, so a change that only
// reorders or reformats a response is still correct.
type golden struct {
	Answers map[string]digests `json:"answers"`
}

type digests struct {
	Canon string `json:"canon"`
	Raw   string `json:"raw"`
}

func goldenName(w *workload) string {
	if w.quick {
		return "golden/quick-" + w.name + ".json"
	}
	return "golden/" + w.name + ".json"
}

func loadGolden(w *workload) (*golden, error) {
	b, err := goldenFS.ReadFile(goldenName(w))
	if err != nil {
		return nil, err
	}
	g := &golden{}
	return g, json.Unmarshal(b, g)
}

// sample is one measured request. It keeps no pointer to its op, so a
// hundred thousand of them stay a few MB and heap_mb measures the program,
// not the benchmark.
type sample struct {
	class string // the op's class: a constant, not a copy
	ms    float64
	cache string // X-Cache: one of the server's constants
	bytes int
	ok    bool
	shed  bool // answered 503
}

// client is one closed-loop user: it sends the next request only after the
// previous answer was read to its last byte.
type client struct {
	http   *http.Client
	base   string
	gold   *golden
	record *golden // when non-nil, answers are recorded instead of checked
	// known holds, per key, a body already verified, so repeated answers of
	// the hot workloads are checked by comparing bytes.
	known map[string][]byte
	// checkpoint compacts the durable workload's store (see op.Class).
	checkpoint func() error

	samples  []sample
	failures []string // the first few, for the log
	// excluded* is what answer checking cost; it is taken out of the
	// measured wall time and allocation counts.
	excluded       time.Duration
	excludedAllocs uint64
	excludedBytes  uint64
}

// knownBodyLimit bounds the bodies kept for byte comparison.
const knownBodyLimit = 256 << 10

func newClient(base string, gold *golden) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: 60 * time.Second},
		base: base, gold: gold, known: map[string][]byte{}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one op, times it from send to last body byte, and checks the
// answer. With keep set the sample is recorded. It returns why the op
// failed, "" when it did not.
func (c *client) do(o *op, keep bool) string {
	s := sample{class: o.Class}
	why := ""
	if o.Class == "checkpoint" {
		start := time.Now()
		if err := c.checkpoint(); err != nil {
			why = err.Error()
		}
		s.ms = ms(time.Since(start))
	} else {
		why = c.send(o, &s)
	}
	s.ok = why == ""
	if keep {
		c.samples = append(c.samples, s)
		if !s.ok && len(c.failures) < 5 {
			c.failures = append(c.failures, fmt.Sprintf("%s %s: %s", o.Class, o.Key, why))
		}
	}
	return why
}

func (c *client) send(o *op, s *sample) string {
	var body io.Reader
	if o.Body != "" {
		body = strings.NewReader(o.Body)
	}
	req, err := http.NewRequest(o.Method, c.base+o.Path, body)
	if err != nil {
		return err.Error()
	}
	if o.CType != "" {
		req.Header.Set("Content-Type", o.CType)
	}
	if o.Session != "" {
		req.Header.Set("X-Session", o.Session)
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.ms = ms(time.Since(start))
	if err != nil {
		return err.Error()
	}
	s.cache, s.bytes = resp.Header.Get("X-Cache"), len(data)
	if resp.StatusCode != http.StatusOK {
		s.shed = resp.StatusCode == http.StatusServiceUnavailable
		return fmt.Sprintf("status %d: %.200s", resp.StatusCode, data)
	}
	checkStart := time.Now()
	why := c.check(o, data)
	c.excluded += time.Since(checkStart)
	return why
}

// check returns "" when data is the right answer to o.
func (c *client) check(o *op, data []byte) string {
	if o.Want == "" && c.record == nil {
		if k, ok := c.known[o.Key]; ok && bytes.Equal(k, data) {
			return ""
		}
		want, ok := c.gold.Answers[o.Key]
		if !ok {
			return "no golden answer for " + o.Key
		}
		raw := sha256.Sum256(data)
		if hex.EncodeToString(raw[:]) == want.Raw {
			if len(data) <= knownBodyLimit {
				c.known[o.Key] = data
			}
			return ""
		}
	}
	// Slow path: decode and compare canonical forms. Its allocations are
	// the benchmark's, not the program's.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	defer func() {
		runtime.ReadMemStats(&after)
		c.excludedAllocs += after.Mallocs - before.Mallocs
		c.excludedBytes += after.TotalAlloc - before.TotalAlloc
	}()
	canon, err := canonical(o, data)
	if err != nil {
		return "undecodable answer: " + err.Error()
	}
	if o.Want != "" {
		if canon != o.Want {
			return fmt.Sprintf("answer %q, the model expects %q", canon, o.Want)
		}
		return ""
	}
	sum := sha256.Sum256([]byte(canon))
	got := hex.EncodeToString(sum[:])
	if c.record != nil {
		raw := sha256.Sum256(data)
		d := digests{Canon: got, Raw: hex.EncodeToString(raw[:])}
		if prev, ok := c.record.Answers[o.Key]; ok && prev.Canon != d.Canon {
			return "two answers for one key " + o.Key
		}
		c.record.Answers[o.Key] = d
		return ""
	}
	if want := c.gold.Answers[o.Key]; got != want.Canon {
		return fmt.Sprintf("wrong answer for %s: canonical digest %.12s, golden %.12s", o.Key, got, want.Canon)
	}
	return ""
}

// ---- canonical answers ----

type termJSON struct {
	Kind     string `json:"kind"`
	Type     string `json:"type"` // SPARQL results JSON says "type"
	Value    string `json:"value"`
	Datatype string `json:"datatype"`
	Lang     string `json:"lang"`
	XMLLang  string `json:"xml:lang"`
}

// canonTerm renders a term so that representation details do not matter:
// kind names are unified, and decimals and doubles are rounded to nine
// significant digits so that a different summation order is not a wrong answer.
func canonTerm(t termJSON) string {
	kind := t.Kind + t.Type
	switch kind {
	case "uri":
		kind = "iri"
	case "bnode":
		kind = "blank"
	case "typed-literal":
		kind = "literal"
	}
	v := t.Value
	if strings.HasSuffix(t.Datatype, "#decimal") || strings.HasSuffix(t.Datatype, "#double") || strings.HasSuffix(t.Datatype, "#float") {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			v = strconv.FormatFloat(f, 'g', 9, 64)
		}
	}
	return kind + "|" + v + "|" + t.Datatype + "|" + t.Lang + t.XMLLang
}

// canonical decodes an answer into the text whose digest the golden file
// holds: SPARQL rows sorted unless the query orders them; a state as its
// object count plus sorted facet/value/count triples; an Answer Frame as its
// sorted rows; an update as its counts.
func canonical(o *op, data []byte) (string, error) {
	var lines []string
	head := ""
	switch o.Class {
	case "sparql":
		var res struct {
			Head    struct{ Vars []string }
			Results struct{ Bindings []map[string]termJSON }
		}
		if err := json.Unmarshal(data, &res); err != nil {
			return "", err
		}
		head = strings.Join(res.Head.Vars, "\t")
		for _, b := range res.Results.Bindings {
			cells := make([]string, len(res.Head.Vars))
			for i, v := range res.Head.Vars {
				if t, ok := b[v]; ok {
					cells[i] = canonTerm(t)
				}
			}
			lines = append(lines, strings.Join(cells, "\t"))
		}
		if o.Ordered {
			return head + "\n" + strings.Join(lines, "\n"), nil
		}
	case "click":
		var st struct {
			TotalObjects int
			Facets       []struct {
				P       string
				Inverse bool
				Values  []struct {
					Term  termJSON
					Count int
				}
			}
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return "", err
		}
		head = fmt.Sprintf("objects=%d", st.TotalObjects)
		for _, f := range st.Facets {
			for _, v := range f.Values {
				lines = append(lines, fmt.Sprintf("%s\t%t\t%s\t%d", f.P, f.Inverse, canonTerm(v.Term), v.Count))
			}
		}
	case "expand":
		var ex struct {
			Values []struct {
				Term  termJSON
				Count int
			}
		}
		if err := json.Unmarshal(data, &ex); err != nil {
			return "", err
		}
		for _, v := range ex.Values {
			lines = append(lines, fmt.Sprintf("%s\t%d", canonTerm(v.Term), v.Count))
		}
	case "run":
		var af struct {
			GroupCols, MeasureCols []string
			Rows                   [][]termJSON
		}
		if err := json.Unmarshal(data, &af); err != nil {
			return "", err
		}
		head = fmt.Sprintf("groups=%d measures=%s", len(af.GroupCols), strings.Join(af.MeasureCols, ","))
		for _, row := range af.Rows {
			cells := make([]string, len(row))
			for i, t := range row {
				cells[i] = canonTerm(t)
			}
			lines = append(lines, strings.Join(cells, "\t"))
		}
	case "update", "housekeeping":
		var u struct{ Inserted, Deleted int }
		if err := json.Unmarshal(data, &u); err != nil {
			return "", err
		}
		return fmt.Sprintf("inserted=%d deleted=%d", u.Inserted, u.Deleted), nil
	default:
		return "", fmt.Errorf("no canonical form for class %q", o.Class)
	}
	sort.Strings(lines)
	return head + "\n" + strings.Join(lines, "\n"), nil
}
