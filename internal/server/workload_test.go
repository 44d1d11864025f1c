package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"regexp"
	"slices"
	"strings"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/obs"
	"rdfanalytics/internal/sparql"
)

// driveWorkload sends one protocol SELECT and one analytic run through ts,
// so the workload profiler has both kinds of traffic. It returns the
// X-Trace-ID of each.
func driveWorkload(t *testing.T, base string) (sparqlID, runID string) {
	t.Helper()
	sparqlID = getTraced(t, base+"/sparql?query="+url.QueryEscape(
		`SELECT ?s ?m WHERE { ?s a <`+datagen.ExampleNS+`Laptop> . ?s <`+datagen.ExampleNS+`manufacturer> ?m }`))
	postJSON(t, base+"/api/click/class", map[string]any{"class": datagen.ExampleNS + "Laptop"})
	postJSON(t, base+"/api/groupby", map[string]any{
		"path": []map[string]any{{"p": datagen.ExampleNS + "manufacturer"}}})
	postJSON(t, base+"/api/aggregate", map[string]any{"op": "COUNT"})
	return sparqlID, postTraced(t, base+"/api/run")
}

// TestWorkloadEndpoint drives both query kinds and checks GET /api/workload
// aggregates them by fingerprint, with the plan-vs-actual table populated
// from the operator profiles.
func TestWorkloadEndpoint(t *testing.T) {
	ts := testServer(t)
	driveWorkload(t, ts.URL)

	resp, err := http.Get(ts.URL + "/api/workload")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.WorkloadSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Total < 2 {
		t.Fatalf("total = %d, want >= 2 (one sparql, one analytics)", snap.Total)
	}
	kinds := map[string]bool{}
	for _, fp := range snap.Fingerprints {
		kinds[fp.Kind] = true
		if fp.ID == "" || fp.Shape == "" {
			t.Errorf("fingerprint missing id/shape: %+v", fp)
		}
	}
	if !kinds["sparql"] || !kinds["analytics"] {
		t.Errorf("fingerprint kinds = %v, want sparql and analytics", kinds)
	}
	if len(snap.Recent) == 0 || snap.Recent[0].Outcome != "ok" {
		t.Errorf("recent ring empty or wrong outcome: %+v", snap.Recent)
	}
	// The profiled scans carried graph-count estimates, so the misestimation
	// table has at least one site with a sane q-error.
	if len(snap.Misestimates) == 0 {
		t.Fatal("misestimation table empty after profiled queries")
	}
	for _, e := range snap.Misestimates {
		if e.QError < 1 {
			t.Errorf("q-error %v < 1 at %s %s", e.QError, e.Op, e.Label)
		}
	}
}

// TestWorkloadShapeStripsConstants checks two protocol queries differing
// only in a constant share one fingerprint.
func TestWorkloadShapeStripsConstants(t *testing.T) {
	ts := testServer(t)
	for _, lit := range []string{`"a"`, `"b"`} {
		resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(
			`SELECT ?s WHERE { ?s <`+datagen.ExampleNS+`name> `+lit+` }`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	var snap obs.WorkloadSnapshot
	resp, err := http.Get(ts.URL + "/api/workload")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, fp := range snap.Fingerprints {
		if strings.Contains(fp.Shape, "name") && fp.Count != 2 {
			t.Errorf("constant-differing queries split fingerprints: %+v", fp)
		}
	}
}

// TestDashboard fetches /debug/dashboard and checks it is a self-contained
// HTML page: inline styles only, no scripts, no external assets, with the
// workload and misestimation sections rendered.
func TestDashboard(t *testing.T) {
	ts := testServer(t)
	driveWorkload(t, ts.URL)

	resp, err := http.Get(ts.URL + "/debug/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dashboard status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content type = %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control = %q, want no-store", cc)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(body)
	for _, want := range []string{
		"RDF-Analytics dashboard", "Workload (RED)", "p95 latency",
		"Plan vs. actual", "q-error", "Recent queries",
		`http-equiv="refresh"`, "Overload resilience", "Retained traces",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	// Self-contained: no scripts, and no src/href pointing off-host.
	if strings.Contains(page, "<script") {
		t.Error("dashboard must not embed scripts")
	}
	if re := regexp.MustCompile(`(src|href)\s*=\s*"(https?:)?//`); re.MatchString(page) {
		t.Errorf("dashboard references external assets: %s", re.FindString(page))
	}
}

// traceDetail fetches GET /api/traces/{id}: its span tree and the nodes of
// the engine's operator profile, root first (none without a profile).
func traceDetail(t *testing.T, base, id string) (obs.SpanJSON, []*sparql.ProfNodeJSON) {
	t.Helper()
	var d struct {
		Spans   obs.SpanJSON         `json:"spans"`
		Profile *sparql.ProfNodeJSON `json:"profile"`
	}
	fetchTrace(t, base, id, &d)
	var nodes []*sparql.ProfNodeJSON
	var walk func(n *sparql.ProfNodeJSON)
	walk = func(n *sparql.ProfNodeJSON) {
		nodes = append(nodes, n)
		for i := range n.Children {
			walk(&n.Children[i])
		}
	}
	if d.Profile != nil {
		walk(d.Profile)
	}
	return d.Spans, nodes
}

// TestTraceProfile checks GET /api/traces/{id} of a /sparql miss and of a
// run: the spans are the layers' own and name no engine operator, and the
// profile is the engine's — match, bgp and scan nodes, every scan with its
// estimate next to its actual rows.
func TestTraceProfile(t *testing.T) {
	ts := testServer(t)
	sparqlID, runID := driveWorkload(t, ts.URL)
	engineOps := []string{"match", "bgp", "plan", "scan", "filter", "aggregate", "project", "modifiers"}
	for root, id := range map[string]string{"sparql": sparqlID, "run_analytics": runID} {
		spans, nodes := traceDetail(t, ts.URL, id)
		if spans.Name != root || len(nodes) == 0 || nodes[0].Op != root || nodes[0].Calls != 1 {
			t.Fatalf("%s trace: spans %q, profile %+v", root, spans.Name, nodes)
		}
		var walk func(s obs.SpanJSON)
		walk = func(s obs.SpanJSON) {
			if slices.Contains(engineOps, s.Name) {
				t.Errorf("%s trace has an engine span %q", root, s.Name)
			}
			for _, c := range s.Children {
				walk(c)
			}
		}
		walk(spans)
		ops := map[string]int{}
		for _, n := range nodes {
			ops[n.Op]++
			if n.Op == "scan" && n.EstRows == nil {
				t.Errorf("%s profile: scan %s has no estimate", root, n.Label)
			}
		}
		for _, op := range []string{"match", "bgp", "scan"} {
			if ops[op] == 0 {
				t.Errorf("%s profile has no %s node", root, op)
			}
		}
	}
}

// TestEveryFormIsProfiled: a retained ASK trace and a retained CONSTRUCT
// trace each carry the engine's profile, down to its scans.
func TestEveryFormIsProfiled(t *testing.T) {
	ts := testServer(t)
	where := `{ ?s a <` + datagen.ExampleNS + `Laptop> ; <` + datagen.ExampleNS + `manufacturer> ?m }`
	for _, q := range []string{
		`ASK ` + where,
		`CONSTRUCT { ?s <` + datagen.ExampleNS + `madeBy> ?m } WHERE ` + where,
	} {
		id := getTraced(t, ts.URL+"/sparql?query="+url.QueryEscape(q))
		_, nodes := traceDetail(t, ts.URL, id)
		if !slices.ContainsFunc(nodes, func(n *sparql.ProfNodeJSON) bool { return n.Op == "scan" }) {
			t.Errorf("%s: the retained trace's profile has no scan: %+v", q, nodes)
		}
	}
}
