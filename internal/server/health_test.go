package server

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
)

// newTestServer builds a server with cfg over the small products graph and
// returns both the raw *Server (for SetDraining and in-process requests)
// and an httptest wrapper.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	s := NewWithConfig(g, datagen.ExampleNS, cfg)
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func getStatus(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestHealthProbesDrainFlip checks /healthz and /readyz answer 200 while
// serving and flip to 503 the moment the drain flag is set.
func TestHealthProbesDrainFlip(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, p := range []string{"/healthz", "/readyz"} {
		if code, body := getStatus(t, ts.URL+p); code != http.StatusOK || !strings.Contains(string(body), "ok") {
			t.Errorf("GET %s = %d %s, want 200 ok", p, code, body)
		}
	}
	s.SetDraining(true)
	for _, p := range []string{"/healthz", "/readyz"} {
		if code, body := getStatus(t, ts.URL+p); code != http.StatusServiceUnavailable ||
			!strings.Contains(string(body), "draining") {
			t.Errorf("draining GET %s = %d %s, want 503 draining", p, code, body)
		}
	}
	s.SetDraining(false)
	if code, _ := getStatus(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Error("healthz did not recover after drain cleared")
	}
}

// TestRunListenerSetsDraining checks graceful shutdown flips the handler's
// drain flag before the listener drains, so balancer probes fail fast.
func TestRunListenerSetsDraining(t *testing.T) {
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	s := New(g, datagen.ExampleNS)
	defer s.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- RunListener(ctx, ln, s, time.Second) }()

	// Wait until the listener serves, then trigger shutdown.
	base := "http://" + ln.Addr().String()
	for i := 0; i < 100; i++ {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s.Draining() {
		t.Fatal("draining before shutdown began")
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("RunListener: %v", err)
	}
	if !s.Draining() {
		t.Error("RunListener did not set the drain flag during shutdown")
	}
}

// TestRequestIDMiddleware checks ids are minted, well-formed client ids are
// honoured, malformed ones replaced, and error JSON echoes the id.
func TestRequestIDMiddleware(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/api/state")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-ID"); len(id) != 16 {
		t.Errorf("generated id = %q, want 16 hex chars", id)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/api/state", nil)
	req.Header.Set("X-Request-ID", "client-id_1.2")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-ID"); id != "client-id_1.2" {
		t.Errorf("client id not honoured: %q", id)
	}

	for _, bad := range []string{strings.Repeat("x", 100), "bad id!", "inject{}"} {
		req, _ = http.NewRequest("GET", ts.URL+"/api/state", nil)
		req.Header.Set("X-Request-ID", bad)
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if id := resp.Header.Get("X-Request-ID"); id == bad || len(id) != 16 {
			t.Errorf("malformed client id %q not replaced: %q", bad, id)
		}
	}

	// Error JSON carries the request id for support correlation.
	req, _ = http.NewRequest("GET", ts.URL+"/sparql?query=%28broken", nil)
	req.Header.Set("X-Request-ID", "err-corr-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("broken query = %d, want 400", resp.StatusCode)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["request_id"] != "err-corr-42" {
		t.Errorf("error body request_id = %q, want err-corr-42 (%v)", out["request_id"], out)
	}
	if out["error"] == "" {
		t.Error("error body missing message")
	}
}
