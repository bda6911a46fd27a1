package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	spantree "repro"
)

// newPersistServer boots a server over an engine whose registry persists in
// dir.
func newPersistServer(t *testing.T, dir string) *httptest.Server {
	t.Helper()
	eng, err := spantree.NewEngine(1, spantree.WithWalkLength(256), spantree.WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng).routes())
	t.Cleanup(ts.Close)
	return ts
}

// doAuth issues a GET with an optional bearer token and returns the response.
func doAuth(t *testing.T, url, token string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestAuthGate covers the bearer-token middleware: with a token configured,
// /v1/* rejects missing and wrong credentials with 401 and accepts the right
// one, while the infrastructure endpoints stay open for probes and scrapers.
func TestAuthGate(t *testing.T) {
	eng, err := spantree.NewEngine(1, spantree.WithWalkLength(256))
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(eng)
	srv.setAuthToken("open-sesame")
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	cases := []struct {
		name  string
		url   string
		token string
		want  int
	}{
		{"v1 no token", ts.URL + "/v1/graphs", "", http.StatusUnauthorized},
		{"v1 wrong token", ts.URL + "/v1/graphs", "open-says-me", http.StatusUnauthorized},
		{"v1 right token", ts.URL + "/v1/graphs", "open-sesame", http.StatusOK},
		{"stats right token", ts.URL + "/v1/stats", "open-sesame", http.StatusOK},
		{"healthz exempt", ts.URL + "/healthz", "", http.StatusOK},
		{"metrics exempt", ts.URL + "/metrics", "", http.StatusOK},
	}
	for _, tc := range cases {
		resp := doAuth(t, tc.url, tc.token)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if tc.want == http.StatusUnauthorized {
			if got := resp.Header.Get("WWW-Authenticate"); got != `Bearer realm="spantreed"` {
				t.Errorf("%s: WWW-Authenticate = %q", tc.name, got)
			}
		}
	}

	// Writes are gated too, not just reads.
	resp := postJSON(t, ts.URL+"/v1/sample", map[string]any{"graph": "g", "k": 1})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated POST /v1/sample: status %d, want 401", resp.StatusCode)
	}
}

// TestAuthDisabledByDefault pins that a server with no token behaves exactly
// as before the middleware existed.
func TestAuthDisabledByDefault(t *testing.T) {
	ts, _ := newTestServer(t)
	resp := doAuth(t, ts.URL+"/v1/graphs", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("no-auth server rejected /v1/graphs: status %d", resp.StatusCode)
	}
}

// TestDataDirRestartServesIdenticalSamples is the HTTP-level restart check:
// a server restarted over the same -data-dir keeps its graph registry and
// serves byte-identical trees and Stats for the same request.
func TestDataDirRestartServesIdenticalSamples(t *testing.T) {
	dir := t.TempDir()
	req := map[string]any{
		"graph": "g", "k": 5, "sampler": "phase", "seed_base": 9, "include_trees": true,
	}

	ts1 := newPersistServer(t, dir)
	registerFamily(t, ts1, "g", "expander", 16)
	var first sampleResponse
	decodeBody(t, postJSON(t, ts1.URL+"/v1/sample", req), &first)
	ts1.Close()

	ts2 := newPersistServer(t, dir)
	var graphs struct {
		Graphs []spantree.GraphInfo `json:"graphs"`
	}
	decodeBody(t, doAuth(t, ts2.URL+"/v1/graphs", ""), &graphs)
	if len(graphs.Graphs) != 1 || graphs.Graphs[0].Key != "g" {
		t.Fatalf("restarted registry = %+v, want graph %q", graphs.Graphs, "g")
	}

	var second sampleResponse
	decodeBody(t, postJSON(t, ts2.URL+"/v1/sample", req), &second)
	if !reflect.DeepEqual(first.Trees, second.Trees) {
		t.Errorf("trees diverged across restart:\n  before %v\n  after  %v", first.Trees, second.Trees)
	}
	if !reflect.DeepEqual(first.Summary, second.Summary) {
		t.Errorf("summary diverged across restart:\n  before %+v\n  after  %+v", first.Summary, second.Summary)
	}
}

func getBody(t *testing.T, url string) string {
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
	return string(body)
}
