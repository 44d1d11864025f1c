package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

func testServer(t testing.TB) *httptest.Server {
	t.Helper()
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	ts := httptest.NewServer(New(g, datagen.ExampleNS))
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any) map[string]any {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d: %v", url, resp.StatusCode, out)
	}
	return out
}

func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSPARQLEndpointGET(t *testing.T) {
	ts := testServer(t)
	q := `PREFIX ex: <` + datagen.ExampleNS + `>
SELECT ?m (COUNT(?l) AS ?n) WHERE { ?l a ex:Laptop . ?l ex:manufacturer ?m } GROUP BY ?m`
	resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	res, err := sparql.ParseJSONResults(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %d", res.Len())
	}
}

func TestSPARQLEndpointPOSTForm(t *testing.T) {
	ts := testServer(t)
	resp, err := http.PostForm(ts.URL+"/sparql", url.Values{
		"query": {`ASK { ?s ?p ?o }`},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Boolean bool `json:"boolean"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Boolean {
		t.Fatal("ASK returned false")
	}
}

func TestSPARQLEndpointPOSTRaw(t *testing.T) {
	ts := testServer(t)
	q := `PREFIX ex: <` + datagen.ExampleNS + `>
CONSTRUCT { ?l ex:madeBy ?m } WHERE { ?l ex:manufacturer ?m }`
	resp, err := http.Post(ts.URL+"/sparql", "application/sparql-query", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/n-triples" {
		t.Fatalf("content type %q", ct)
	}
	g, err := rdf.LoadTurtle(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 6 { // 3 laptops + 3 HDs have manufacturers
		t.Fatalf("constructed %d triples", g.Len())
	}
}

func TestSPARQLEndpointCSV(t *testing.T) {
	ts := testServer(t)
	req, _ := http.NewRequest("GET",
		ts.URL+"/sparql?query="+url.QueryEscape(`SELECT ?s WHERE { ?s a <`+datagen.ExampleNS+`Laptop> }`), nil)
	req.Header.Set("Accept", "text/csv")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body)
	if !strings.HasPrefix(buf.String(), "s\n") {
		t.Fatalf("csv: %q", buf.String())
	}
	if strings.Count(buf.String(), "\n") != 4 { // header + 3 rows
		t.Fatalf("csv rows: %q", buf.String())
	}
}

func TestSPARQLEndpointErrors(t *testing.T) {
	ts := testServer(t)
	resp, _ := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape("NOT A QUERY"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Get(ts.URL + "/sparql")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing query status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestInteractionAPIExample2 drives §5.1 Example 2 through the HTTP API:
// click class Laptop, group by manufacturer/origin, COUNT, run.
func TestInteractionAPIExample2(t *testing.T) {
	ts := testServer(t)
	ns := datagen.ExampleNS
	st := getJSON(t, ts.URL+"/api/state")
	if int(st["totalObjects"].(float64)) == 0 {
		t.Fatal("empty initial state")
	}
	postJSON(t, ts.URL+"/api/click/class", map[string]any{"class": ns + "Laptop"})
	st = postJSON(t, ts.URL+"/api/groupby", map[string]any{
		"path": []map[string]any{{"p": ns + "manufacturer"}, {"p": ns + "origin"}},
	})
	postJSON(t, ts.URL+"/api/aggregate", map[string]any{
		"path": []map[string]any{}, "op": "COUNT",
	})
	ans := postJSON(t, ts.URL+"/api/run", map[string]any{})
	rows := ans["rows"].([]any)
	if len(rows) != 2 {
		t.Fatalf("rows: %v", ans)
	}
	if !strings.Contains(ans["sparql"].(string), "GROUP BY") {
		t.Errorf("sparql: %v", ans["sparql"])
	}
	if !strings.Contains(ans["hifun"].(string), "COUNT") {
		t.Errorf("hifun: %v", ans["hifun"])
	}
	// Chart endpoint renders the answer.
	resp, err := http.Get(ts.URL + "/api/chart?type=pie")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "<svg") {
		t.Fatalf("chart: %q", buf.String()[:60])
	}
}

func TestInteractionAPIRangeAndValue(t *testing.T) {
	ts := testServer(t)
	ns := datagen.ExampleNS
	postJSON(t, ts.URL+"/api/click/class", map[string]any{"class": ns + "Laptop"})
	st := postJSON(t, ts.URL+"/api/click/range", map[string]any{
		"path":  []map[string]any{{"p": ns + "USBPorts"}},
		"op":    ">",
		"value": map[string]any{"kind": "literal", "value": "2", "datatype": rdf.XSDInteger},
	})
	if int(st["totalObjects"].(float64)) != 1 {
		t.Fatalf("range filter: %v objects", st["totalObjects"])
	}
	postJSON(t, ts.URL+"/api/back", map[string]any{})
	st = postJSON(t, ts.URL+"/api/click/value", map[string]any{
		"path":  []map[string]any{{"p": ns + "manufacturer"}},
		"value": map[string]any{"kind": "iri", "value": ns + "DELL"},
	})
	if int(st["totalObjects"].(float64)) != 2 {
		t.Fatalf("value click: %v objects", st["totalObjects"])
	}
}

// TestRangeClickChecksItsOperator: the operator of a range click ends up in
// the FILTER a run executes, so one that is not a comparison is refused and
// leaves the session as it was.
func TestRangeClickChecksItsOperator(t *testing.T) {
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	s := New(g, datagen.ExampleNS)
	ns := datagen.ExampleNS
	clicks(t, s, "a", "/api/click/class", `{"class":"`+ns+`Laptop"}`)
	refused(t, s, "a", "/api/click/range",
		`{"path":[{"p":"`+ns+`USBPorts"}],"op":"> 0 || true ||","value":{"kind":"literal","value":"2","datatype":"`+rdf.XSDInteger+`"}}`)
}

// refused sends each (path, body) pair for session and demands a 400 that
// leaves GET /api/state byte-identical.
func refused(t *testing.T, s *Server, session string, calls ...string) {
	t.Helper()
	before := inSession(s, session, "GET", "/api/state", "").Body.String()
	for i := 0; i+1 < len(calls); i += 2 {
		if rec := inSession(s, session, "POST", calls[i], calls[i+1]); rec.Code != http.StatusBadRequest {
			t.Errorf("%s %s = %d, want 400", calls[i], calls[i+1], rec.Code)
		}
		if after := inSession(s, session, "GET", "/api/state", "").Body.String(); after != before {
			t.Errorf("%s %s changed the session's state:\nbefore %.200s\nafter  %.200s", calls[i], calls[i+1], before, after)
		}
	}
}

// TestClickRejectsAnEmptyPath: an intention writes no pattern for an empty
// path, so a value or range click along one would show an extension the
// next run does not range over. Such clicks, and a path step or a class
// without an IRI, are refused and leave the session as it was.
func TestClickRejectsAnEmptyPath(t *testing.T) {
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	s := New(g, datagen.ExampleNS)
	ns := datagen.ExampleNS
	dell := `{"kind":"iri","value":"` + ns + `DELL"}`
	two := `{"kind":"literal","value":"2","datatype":"` + rdf.XSDInteger + `"}`
	clicks(t, s, "a", "/api/click/class", `{"class":"`+ns+`Laptop"}`)
	refused(t, s, "a",
		"/api/click/value", `{"path":[],"value":`+dell+`}`,
		"/api/click/value", `{"value":`+dell+`}`,
		"/api/click/value", `{"path":[],"values":[`+dell+`]}`,
		"/api/click/range", `{"path":[],"op":">","value":`+two+`}`,
		"/api/click/value", `{"path":[{"p":""}],"value":`+dell+`}`,
		"/api/click/range", `{"path":[{"p":"`+ns+`hardDrive"},{"p":""}],"op":">","value":`+two+`}`,
		"/api/click/class", `{"class":""}`)
}

// TestAnalyticClickRejectsBadSpec: a G click without a path, or a G or Σ
// click with a derive function HIFUN does not know, would make every later
// run of the session fail. It is refused, and the session still runs.
func TestAnalyticClickRejectsBadSpec(t *testing.T) {
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	s := New(g, datagen.ExampleNS)
	ns := datagen.ExampleNS
	laptopsBy(t, s, "a", "manufacturer")
	refused(t, s, "a",
		"/api/groupby", `{"path":[]}`,
		"/api/groupby", `{"path":[{"p":"`+ns+`releaseDate"}],"derive":"nosuch"}`,
		"/api/aggregate", `{"path":[{"p":"`+ns+`price"}],"derive":"nosuch","op":"SUM"}`)
	if code, _, _, body := doRun(s, "a"); code != http.StatusOK {
		t.Fatalf("run after the refused clicks = %d %s", code, body)
	}
}

func TestInteractionAPIExpand(t *testing.T) {
	ts := testServer(t)
	ns := datagen.ExampleNS
	postJSON(t, ts.URL+"/api/click/class", map[string]any{"class": ns + "Laptop"})
	out := postJSON(t, ts.URL+"/api/expand", map[string]any{
		"path": []map[string]any{{"p": ns + "manufacturer"}, {"p": ns + "origin"}},
	})
	vals := out["values"].([]any)
	if len(vals) != 2 {
		t.Fatalf("expand values: %v", vals)
	}
}

func TestInteractionAPINesting(t *testing.T) {
	ts := testServer(t)
	ns := datagen.ExampleNS
	postJSON(t, ts.URL+"/api/click/class", map[string]any{"class": ns + "Laptop"})
	postJSON(t, ts.URL+"/api/groupby", map[string]any{
		"path": []map[string]any{{"p": ns + "manufacturer"}},
	})
	postJSON(t, ts.URL+"/api/aggregate", map[string]any{
		"path": []map[string]any{{"p": ns + "price"}}, "op": "AVG",
	})
	postJSON(t, ts.URL+"/api/run", map[string]any{})
	st := postJSON(t, ts.URL+"/api/load-answer", map[string]any{})
	if int(st["depth"].(float64)) != 2 {
		t.Fatalf("depth: %v", st["depth"])
	}
	if int(st["totalObjects"].(float64)) != 2 { // two groups
		t.Fatalf("tuples: %v", st["totalObjects"])
	}
	st = postJSON(t, ts.URL+"/api/close-level", map[string]any{})
	if int(st["depth"].(float64)) != 1 {
		t.Fatalf("depth after close: %v", st["depth"])
	}
}

func TestInteractionAPIPivot(t *testing.T) {
	ts := testServer(t)
	ns := datagen.ExampleNS
	postJSON(t, ts.URL+"/api/click/class", map[string]any{"class": ns + "Laptop"})
	st := postJSON(t, ts.URL+"/api/pivot", map[string]any{"p": ns + "manufacturer"})
	if int(st["totalObjects"].(float64)) != 2 { // DELL, Lenovo
		t.Fatalf("pivot objects: %v", st["totalObjects"])
	}
	// Missing property errors.
	resp, _ := http.Post(ts.URL+"/api/pivot", "application/json", strings.NewReader("{}"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty pivot: %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestSPARQLEndpointDescribe(t *testing.T) {
	ts := testServer(t)
	q := `PREFIX ex: <` + datagen.ExampleNS + `> DESCRIBE ex:laptop1`
	resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	g, err := rdf.LoadTurtle(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() == 0 {
		t.Fatal("empty description")
	}
}

func TestAPIErrors(t *testing.T) {
	ts := testServer(t)
	// run without aggregate
	resp, _ := http.Post(ts.URL+"/api/run", "application/json", strings.NewReader("{}"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("run without op: %d", resp.StatusCode)
	}
	resp.Body.Close()
	// bad aggregate op
	data, _ := json.Marshal(map[string]any{"path": []any{}, "op": "NOPE"})
	resp, _ = http.Post(ts.URL+"/api/aggregate", "application/json", bytes.NewReader(data))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad op: %d", resp.StatusCode)
	}
	resp.Body.Close()
	// chart before run
	resp, _ = http.Get(ts.URL + "/api/chart")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("chart before run: %d", resp.StatusCode)
	}
	resp.Body.Close()
	// load-answer before run
	resp, _ = http.Post(ts.URL+"/api/load-answer", "application/json", strings.NewReader("{}"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("load before run: %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestRunSeesUpdateWithoutBeingTold: a run's answer, cached by the first
// /api/run and served to the second, is not served after an INSERT through
// /sparql, although execUpdate notifies no cache: the lookup compares the
// graph version.
func TestRunSeesUpdateWithoutBeingTold(t *testing.T) {
	_, ts := newTestServer(t, resilienceConfig())
	ns := datagen.ExampleNS
	postJSON(t, ts.URL+"/api/click/class", map[string]any{"class": ns + "Laptop"})
	postJSON(t, ts.URL+"/api/groupby", map[string]any{"path": []map[string]any{{"p": ns + "manufacturer"}}})
	postJSON(t, ts.URL+"/api/aggregate", map[string]any{"path": []map[string]any{}, "op": "COUNT"})
	dell := func() int {
		t.Helper()
		ans := postJSON(t, ts.URL+"/api/run", map[string]any{})
		for _, row := range ans["rows"].([]any) {
			cells := row.([]any)
			if cells[0].(map[string]any)["value"] == ns+"DELL" {
				n, err := strconv.Atoi(cells[1].(map[string]any)["value"].(string))
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
		}
		t.Fatalf("no DELL row in %v", ans["rows"])
		return 0
	}
	before := dell()
	if again := dell(); again != before {
		t.Fatalf("repeat run: %d then %d", before, again)
	}
	resp, err := http.PostForm(ts.URL+"/sparql", url.Values{
		"update": {`PREFIX ex: <` + ns + `> INSERT DATA { ex:laptopNew a ex:Laptop ; ex:manufacturer ex:DELL . }`},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d", resp.StatusCode)
	}
	if after := dell(); after != before+1 {
		t.Fatalf("DELL laptops after INSERT = %d, want %d", after, before+1)
	}
}

func TestSPARQLEndpointUpdate(t *testing.T) {
	ts := testServer(t)
	// Form-encoded update.
	resp, err := http.PostForm(ts.URL+"/sparql", url.Values{
		"update": {`PREFIX ex: <http://new/> INSERT DATA { ex:a ex:p ex:b . }`},
	})
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]int
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if out["inserted"] != 1 {
		t.Fatalf("inserted = %v", out)
	}
	// Raw-body update.
	resp, err = http.Post(ts.URL+"/sparql", "application/sparql-update",
		strings.NewReader(`PREFIX ex: <http://new/> DELETE DATA { ex:a ex:p ex:b . }`))
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if out["deleted"] != 1 {
		t.Fatalf("deleted = %v", out)
	}
	// The inserted triple is gone again.
	yes, _ := func() (bool, error) {
		r, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(`ASK { <http://new/a> ?p ?o }`))
		if err != nil {
			return false, err
		}
		defer r.Body.Close()
		var a struct {
			Boolean bool `json:"boolean"`
		}
		json.NewDecoder(r.Body).Decode(&a)
		return a.Boolean, nil
	}()
	if yes {
		t.Error("triple survived delete")
	}
	// Malformed update errors.
	resp, _ = http.PostForm(ts.URL+"/sparql", url.Values{"update": {"GARBAGE"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage update: %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestStatsAndIndex(t *testing.T) {
	ts := testServer(t)
	st := getJSON(t, ts.URL+"/api/stats")
	if st["triples"].(float64) == 0 {
		t.Fatal("stats empty")
	}
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "RDF-Analytics") {
		t.Fatal("index page broken")
	}
}

// TestMultiSession: distinct X-Session ids get independent interaction
// states.
func TestMultiSession(t *testing.T) {
	ts := testServer(t)
	ns := datagen.ExampleNS
	post := func(session, path string, body any) map[string]any {
		t.Helper()
		data, _ := json.Marshal(body)
		req, _ := http.NewRequest("POST", ts.URL+path, bytes.NewReader(data))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Session", session)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		if resp.StatusCode != 200 {
			t.Fatalf("POST %s (%s): %d %v", path, session, resp.StatusCode, out)
		}
		return out
	}
	get := func(session, path string) map[string]any {
		t.Helper()
		req, _ := http.NewRequest("GET", ts.URL+path, nil)
		req.Header.Set("X-Session", session)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		return out
	}
	// Alice narrows to laptops; Bob narrows to companies.
	a := post("alice", "/api/click/class", map[string]any{"class": ns + "Laptop"})
	b := post("bob", "/api/click/class", map[string]any{"class": ns + "Company"})
	if int(a["totalObjects"].(float64)) != 3 || int(b["totalObjects"].(float64)) != 4 {
		t.Fatalf("alice=%v bob=%v", a["totalObjects"], b["totalObjects"])
	}
	// Each sees their own state afterwards.
	if st := get("alice", "/api/state"); int(st["totalObjects"].(float64)) != 3 {
		t.Errorf("alice state: %v", st["totalObjects"])
	}
	if st := get("bob", "/api/state"); int(st["totalObjects"].(float64)) != 4 {
		t.Errorf("bob state: %v", st["totalObjects"])
	}
	// The ?session= query parameter works too.
	resp, err := http.Get(ts.URL + "/api/state?session=alice")
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]any
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if int(st["totalObjects"].(float64)) != 3 {
		t.Errorf("query-param session: %v", st["totalObjects"])
	}
	// The anonymous default session is untouched.
	if st := get("", "/api/state"); int(st["totalObjects"].(float64)) == 3 {
		t.Error("default session leaked alice's state")
	}
}

func TestChartTypes(t *testing.T) {
	ts := testServer(t)
	ns := datagen.ExampleNS
	postJSON(t, ts.URL+"/api/click/class", map[string]any{"class": ns + "Laptop"})
	postJSON(t, ts.URL+"/api/groupby", map[string]any{
		"path": []map[string]any{{"p": ns + "manufacturer"}},
	})
	postJSON(t, ts.URL+"/api/aggregate", map[string]any{
		"path": []map[string]any{{"p": ns + "price"}}, "op": "SUM",
	})
	postJSON(t, ts.URL+"/api/run", map[string]any{})
	for _, typ := range []string{"bar", "pie", "column", "line", "treemap", "spiral"} {
		resp, err := http.Get(ts.URL + "/api/chart?type=" + typ)
		if err != nil {
			t.Fatal(err)
		}
		buf := new(bytes.Buffer)
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(buf.String(), "<svg") {
			t.Errorf("chart type %s: status %d, body %q", typ, resp.StatusCode, buf.String()[:40])
		}
	}
	// A bad measure index errors; so does one that is not an integer.
	for _, measure := range []string{"99", "abc", "1.5"} {
		resp, _ := http.Get(ts.URL + "/api/chart?measure=" + measure)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("measure=%s: %d, want 400", measure, resp.StatusCode)
		}
	}
}

func TestAnswerCSV(t *testing.T) {
	ts := testServer(t)
	ns := datagen.ExampleNS
	// Before any run: 400.
	resp, _ := http.Get(ts.URL + "/api/answer.csv")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("pre-run status %d", resp.StatusCode)
	}
	resp.Body.Close()
	postJSON(t, ts.URL+"/api/click/class", map[string]any{"class": ns + "Laptop"})
	postJSON(t, ts.URL+"/api/groupby", map[string]any{
		"path": []map[string]any{{"p": ns + "manufacturer"}},
	})
	postJSON(t, ts.URL+"/api/aggregate", map[string]any{
		"path": []map[string]any{{"p": ns + "price"}}, "op": "SUM",
	})
	postJSON(t, ts.URL+"/api/run", map[string]any{})
	resp, err := http.Get(ts.URL + "/api/answer.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + DELL + Lenovo
		t.Fatalf("csv:\n%s", buf.String())
	}
	if !strings.Contains(lines[0], "sum_price") {
		t.Errorf("header: %q", lines[0])
	}
}

func TestUIPage(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/ui")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body)
	html := buf.String()
	for _, want := range []string{"<title>RDF-Analytics</title>", "/api/state", "/api/groupby", "runQuery"} {
		if !strings.Contains(html, want) {
			t.Errorf("UI page missing %q", want)
		}
	}
}

func TestResetEndpoint(t *testing.T) {
	ts := testServer(t)
	ns := datagen.ExampleNS
	postJSON(t, ts.URL+"/api/click/class", map[string]any{"class": ns + "Laptop"})
	st := postJSON(t, ts.URL+"/api/reset", map[string]any{})
	if st["breadcrumb"].(string) != "⊤" {
		t.Fatalf("breadcrumb after reset: %v", st["breadcrumb"])
	}
}
