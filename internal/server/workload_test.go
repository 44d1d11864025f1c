package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"regexp"
	"strings"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/obs"
)

// driveWorkload sends one protocol SELECT and one analytic run through ts,
// so the workload profiler has both kinds of traffic.
func driveWorkload(t *testing.T, base string) {
	t.Helper()
	resp, err := http.Get(base + "/sparql?query=" + url.QueryEscape(
		`SELECT ?s ?m WHERE { ?s a <`+datagen.ExampleNS+`Laptop> . ?s <`+datagen.ExampleNS+`manufacturer> ?m }`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sparql status = %d", resp.StatusCode)
	}
	postJSON(t, base+"/api/click/class", map[string]any{"class": datagen.ExampleNS + "Laptop"})
	postJSON(t, base+"/api/groupby", map[string]any{
		"path": []map[string]any{{"p": datagen.ExampleNS + "manufacturer"}}})
	postJSON(t, base+"/api/aggregate", map[string]any{"op": "COUNT"})
	postJSON(t, base+"/api/run", map[string]any{})
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
		"<svg", `http-equiv="refresh"`, "SLO error budgets", "Alerts",
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

// TestTraceProfile checks GET /api/trace carries the operator profiles next
// to the span trees for both query kinds.
func TestTraceProfile(t *testing.T) {
	ts := testServer(t)
	driveWorkload(t, ts.URL)

	resp, err := http.Get(ts.URL + "/api/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		AnalyticsProfile *struct {
			Op       string            `json:"op"`
			Children []json.RawMessage `json:"children"`
		} `json:"analytics_profile"`
		SPARQLProfile *struct {
			Op       string            `json:"op"`
			Calls    int               `json:"calls"`
			Children []json.RawMessage `json:"children"`
		} `json:"sparql_profile"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.SPARQLProfile == nil || out.SPARQLProfile.Op != "sparql" ||
		out.SPARQLProfile.Calls != 1 || len(out.SPARQLProfile.Children) == 0 {
		t.Errorf("sparql profile = %+v", out.SPARQLProfile)
	}
	if out.AnalyticsProfile == nil || out.AnalyticsProfile.Op != "run_analytics" ||
		len(out.AnalyticsProfile.Children) == 0 {
		t.Errorf("analytics profile = %+v", out.AnalyticsProfile)
	}
}
