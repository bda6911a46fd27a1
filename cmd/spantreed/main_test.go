package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	spantree "repro"
)

// newTestServer returns an httptest server over a fresh engine (1 worker so
// cancellation tests can reason about in-flight work) plus the engine for
// metric assertions.
func newTestServer(t *testing.T) (*httptest.Server, *spantree.Engine) {
	t.Helper()
	eng, err := spantree.NewEngine(1, spantree.WithWalkLength(256))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng).routes())
	t.Cleanup(ts.Close)
	return ts, eng
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func registerFamily(t *testing.T, ts *httptest.Server, key, family string, n int) {
	t.Helper()
	resp := postJSON(t, ts.URL+"/v1/graphs", map[string]any{"key": key, "family": family, "n": n, "seed": 3})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register %s: status %d", key, resp.StatusCode)
	}
}

// TestHandlersStatusMapping covers the sentinel→HTTP mapping: unknown graphs
// are 404 and unknown samplers 400, on both the legacy and stream endpoints.
func TestHandlersStatusMapping(t *testing.T) {
	ts, _ := newTestServer(t)
	registerFamily(t, ts, "c", "cycle", 8)

	cases := []struct {
		name string
		url  string
		body any
		want int
	}{
		{"sample ok", ts.URL + "/v1/sample", map[string]any{"graph": "c", "k": 2, "sampler": "wilson"}, 200},
		{"sample unknown graph", ts.URL + "/v1/sample", map[string]any{"graph": "nope", "k": 2}, 404},
		{"sample unknown sampler", ts.URL + "/v1/sample", map[string]any{"graph": "c", "k": 2, "sampler": "quantum"}, 400},
		{"sample bad k", ts.URL + "/v1/sample", map[string]any{"graph": "c", "k": 0}, 400},
		{"stream unknown graph", ts.URL + "/v1/graphs/nope/stream", map[string]any{"k": 2}, 404},
		{"stream unknown sampler", ts.URL + "/v1/graphs/c/stream", map[string]any{"k": 2, "sampler": "quantum"}, 400},
		{"stream misplaced knob", ts.URL + "/v1/graphs/c/stream", map[string]any{"k": 2, "sampler": "wilson", "max_steps": 5}, 400},
		{"stream root out of range", ts.URL + "/v1/graphs/c/stream", map[string]any{"k": 2, "sampler": "aldous", "root": 100}, 400},
		// A stream whose first sample fails has not committed its status yet,
		// so the failure surfaces as a real 500 (like /v1/sample), not a 200.
		{"stream first-sample failure", ts.URL + "/v1/graphs/c/stream", map[string]any{"k": 4, "sampler": "aldous", "max_steps": 1}, 500},
	}
	for _, tc := range cases {
		resp := postJSON(t, tc.url, tc.body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	if resp, err := http.Get(ts.URL + "/v1/graphs/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("get unknown graph: status %d, want 404", resp.StatusCode)
		}
	}
}

// TestStreamEndpointMatchesSample reads a full NDJSON stream, reassembles it
// by index, and requires byte-identical trees to the legacy /v1/sample
// response for the same (graph, sampler, seed base).
func TestStreamEndpointMatchesSample(t *testing.T) {
	ts, _ := newTestServer(t)
	registerFamily(t, ts, "c", "cycle", 10)

	var legacy struct {
		Trees []string `json:"trees"`
	}
	decodeBody(t, postJSON(t, ts.URL+"/v1/sample",
		map[string]any{"graph": "c", "k": 8, "sampler": "wilson", "seed_base": 5, "include_trees": true}), &legacy)
	if len(legacy.Trees) != 8 {
		t.Fatalf("legacy sample returned %d trees", len(legacy.Trees))
	}

	resp := postJSON(t, ts.URL+"/v1/graphs/c/stream",
		map[string]any{"k": 8, "sampler": "wilson", "seed_base": 5, "max_workers": 4})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	trees := make([]string, 8)
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			Index *int   `json:"index"`
			Tree  string `json:"tree"`
			Done  bool   `json:"done"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Error != "":
			t.Fatalf("stream error: %s", line.Error)
		case line.Done:
			sawDone = true
		case line.Index != nil:
			trees[*line.Index] = line.Tree
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawDone {
		t.Error("stream never sent the terminal done line")
	}
	for i := range trees {
		if trees[i] != legacy.Trees[i] {
			t.Errorf("index %d: stream tree %q != legacy tree %q", i, trees[i], legacy.Trees[i])
		}
	}
}

// TestStreamClientDisconnectAbortsWork is the honest-cancellation contract:
// a client that drops mid-batch aborts its in-flight stream instead of
// burning the pool, observable through the engine's aborted counter and a
// sample count well short of K.
func TestStreamClientDisconnectAbortsWork(t *testing.T) {
	ts, eng := newTestServer(t)
	// Aldous-Broder on a lollipop graph is deliberately slow: the cover time
	// is Θ(n³), so each sample takes long enough that the disconnect lands
	// mid-batch.
	registerFamily(t, ts, "slow", "lollipop", 192)

	const k = 512
	body, _ := json.Marshal(map[string]any{"k": k, "sampler": "aldous", "seed_base": 1})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/graphs/slow/stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the first sample line to be sure the batch is in flight, then
	// drop the connection.
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatalf("reading first stream line: %v", err)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		m := eng.Metrics()
		if m.Aborted >= 1 {
			if m.Samples >= k {
				t.Errorf("disconnect did not stop the batch: %d samples completed", m.Samples)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream not aborted within deadline; metrics %+v", m)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The engine (and server) stay serviceable after the abort.
	var ok struct {
		Summary spantree.BatchSummary `json:"summary"`
	}
	decodeBody(t, postJSON(t, ts.URL+"/v1/sample",
		map[string]any{"graph": "slow", "k": 2, "sampler": "wilson", "seed_base": 2}), &ok)
	if ok.Summary.Samples != 2 {
		t.Errorf("post-abort sample incomplete: %+v", ok.Summary)
	}
}

// TestStreamLimit429 covers the admission cap over the wire: with
// -max-streams-per-graph 1, a second concurrent stream on the same graph is
// rejected with 429 while the first is still in flight, and succeeds again
// once the first ends.
func TestStreamLimit429(t *testing.T) {
	eng, err := spantree.NewEngine(1, spantree.WithWalkLength(256), spantree.WithMaxStreamsPerGraph(1))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng).routes())
	t.Cleanup(ts.Close)
	// Aldous-Broder on a lollipop graph has Θ(n³) cover time per sample —
	// slow enough that the first stream is still mid-batch when the second
	// request lands.
	registerFamily(t, ts, "c", "lollipop", 192)

	// Hold a stream open by reading only its first line.
	body, _ := json.Marshal(map[string]any{"k": 512, "sampler": "aldous", "max_workers": 1, "seed_base": 1})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/graphs/c/stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatalf("reading first stream line: %v", err)
	}

	second := postJSON(t, ts.URL+"/v1/graphs/c/stream", map[string]any{"k": 1, "sampler": "wilson"})
	if second.StatusCode != http.StatusTooManyRequests {
		t.Errorf("second concurrent stream: status %d, want 429", second.StatusCode)
	}
	if ra := second.Header.Get("Retry-After"); ra == "" {
		t.Error("429 rejection missing Retry-After header")
	}
	var rejection struct {
		Error             string `json:"error"`
		Graph             string `json:"graph"`
		ActiveStreams     int    `json:"active_streams"`
		RetryAfterSeconds int    `json:"retry_after_seconds"`
	}
	decodeBody(t, second, &rejection)
	if rejection.Error == "" || rejection.Graph != "c" {
		t.Errorf("429 body incomplete: %+v", rejection)
	}
	if rejection.ActiveStreams != 1 {
		t.Errorf("429 body reports %d active streams, want 1 (the stream holding the slot)", rejection.ActiveStreams)
	}
	if rejection.RetryAfterSeconds < 1 {
		t.Errorf("429 body retry_after_seconds = %d", rejection.RetryAfterSeconds)
	}

	// Dropping the first stream frees the graph's slot (poll: the abort is
	// asynchronous with the disconnect).
	cancel()
	resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		retry := postJSON(t, ts.URL+"/v1/graphs/c/stream", map[string]any{"k": 1, "sampler": "wilson"})
		retry.Body.Close()
		if retry.StatusCode == http.StatusOK {
			break
		}
		if retry.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("retry stream: status %d", retry.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("stream slot never freed after client disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamSchedulingKnobs checks that weight/max_workers ride the wire and
// never change output bytes: the same (graph, sampler, seed_base) streamed
// at different weights and worker caps reassembles to identical trees.
func TestStreamSchedulingKnobs(t *testing.T) {
	ts, _ := newTestServer(t)
	registerFamily(t, ts, "c", "cycle", 10)

	collect := func(body map[string]any) []string {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/graphs/c/stream", body)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream status %d", resp.StatusCode)
		}
		trees := make([]string, 6)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var line struct {
				Index *int   `json:"index"`
				Tree  string `json:"tree"`
				Error string `json:"error"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			if line.Error != "" {
				t.Fatalf("stream error: %s", line.Error)
			}
			if line.Index != nil {
				trees[*line.Index] = line.Tree
			}
		}
		return trees
	}

	base := collect(map[string]any{"k": 6, "sampler": "wilson", "seed_base": 5})
	for _, body := range []map[string]any{
		{"k": 6, "sampler": "wilson", "seed_base": 5, "weight": 0.25},
		{"k": 6, "sampler": "wilson", "seed_base": 5, "weight": 8, "max_workers": 2},
		{"k": 6, "sampler": "wilson", "seed_base": 5, "max_workers": 1},
	} {
		if got := collect(body); !slices.Equal(got, base) {
			t.Errorf("scheduling knobs changed output: %v gave %v, want %v", body, got, base)
		}
	}

	resp := postJSON(t, ts.URL+"/v1/graphs/c/stream", map[string]any{"k": 1, "weight": -2})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative weight: status %d, want 400", resp.StatusCode)
	}
}

// TestRegisterRejectsOverflowingWeights pins the API-boundary check on edge
// weights: two finite 1e308 edges sharing vertex 1 overflow its weighted
// degree, which would make every later sample on the graph fail, so the
// registration itself is a 400 and nothing is registered.
func TestRegisterRejectsOverflowingWeights(t *testing.T) {
	ts, _ := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/graphs", map[string]any{
		"key": "huge", "n": 3, "edges": [][]float64{{0, 1, 1e308}, {1, 2, 1e308}},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("register: status %d, want 400", resp.StatusCode)
	}
	getResp, err := http.Get(ts.URL + "/v1/graphs/huge")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusNotFound {
		t.Errorf("rejected graph lookup: status %d, want 404", getResp.StatusCode)
	}
}

// TestGraphLifecycleEndpoints exercises register/list/get/delete round trips
// plus edge-list registration.
func TestGraphLifecycleEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/graphs", map[string]any{
		"key": "tri", "n": 3, "edges": [][]float64{{0, 1}, {1, 2}, {0, 2, 2.5}},
	})
	var info spantree.GraphInfo
	decodeBody(t, resp, &info)
	if info.Key != "tri" || info.Vertices != 3 || info.Edges != 3 {
		t.Errorf("edge-list register info: %+v", info)
	}

	var listing struct {
		Graphs []spantree.GraphInfo `json:"graphs"`
	}
	getResp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, getResp, &listing)
	if len(listing.Graphs) != 1 {
		t.Errorf("listing: %+v", listing)
	}

	for _, bad := range []map[string]any{
		{"key": "x"}, // neither family nor edges
		{"key": "x", "family": "cycle", "n": 8, "edges": [][]float64{{0, 1}}}, // both
		{"key": "x", "n": 2, "edges": [][]float64{{0}}},                       // malformed edge
		{"key": "tri", "n": 3, "edges": [][]float64{{0, 1}, {1, 2}, {0, 2}}},  // duplicate key
		{"key": "big", "n": 2000000000, "edges": [][]float64{{0, 1}}},         // n over graph.MaxVertices
		{"key": "big", "family": "cycle", "n": 2000000000},                    // the same, by family
	} {
		resp := postJSON(t, ts.URL+"/v1/graphs", bad)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("register %v: status %d, want 400", bad, resp.StatusCode)
		}
	}
	bigResp, err := http.Get(ts.URL + "/v1/graphs/big")
	if err != nil {
		t.Fatal(err)
	}
	bigResp.Body.Close()
	if bigResp.StatusCode != http.StatusNotFound {
		t.Errorf("refused huge graph lookup: status %d, want 404", bigResp.StatusCode)
	}

	delReq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/tri", nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Errorf("delete: status %d", delResp.StatusCode)
	}
	delResp2, err := http.DefaultClient.Do(delReq.Clone(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	delResp2.Body.Close()
	if delResp2.StatusCode != http.StatusNotFound {
		t.Errorf("double delete: status %d, want 404", delResp2.StatusCode)
	}
}

// TestStatsEndpoint checks the metrics surface: stream counters, the
// matrix-pool block and the stream-pool gauges.
func TestStatsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	registerFamily(t, ts, "c", "cycle", 8)
	resp := postJSON(t, ts.URL+"/v1/graphs/c/stream", map[string]any{"k": 3, "sampler": "wilson"})
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
	}
	// Two phase batches drive the dense kernels, and with them the matrix
	// scratch pool.
	for i := 0; i < 2; i++ {
		r := postJSON(t, ts.URL+"/v1/sample", map[string]any{"graph": "c", "k": 2, "sampler": "phase", "seed_base": 5})
		if r.StatusCode != http.StatusOK {
			t.Fatalf("phase sample %d: status %d", i, r.StatusCode)
		}
		r.Body.Close()
	}

	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if ct := statsResp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("stats content type %q, want application/json", ct)
	}
	var stats struct {
		Engine         spantree.EngineMetrics           `json:"engine"`
		Requests       int64                            `json:"requests"`
		RequestLatency map[string]spantree.HistSnapshot `json:"request_latency"`
	}
	decodeBody(t, statsResp, &stats)
	if stats.Engine.Streams < 1 || stats.Engine.Samples < 3 {
		t.Errorf("stream counters missing from metrics: %+v", stats.Engine)
	}
	if stats.Engine.Aborted != 0 {
		t.Errorf("fully consumed stream counted as aborted: %+v", stats.Engine)
	}
	if stats.Engine.MatrixPool.Gets < 1 {
		t.Errorf("matrix-pool counters missing from metrics: %+v", stats.Engine.MatrixPool)
	}
	// The stream-pool gauges are always present; idle means zero utilization
	// but the pool width (1-worker test engine) still shows.
	if sp := stats.Engine.StreamPool; sp.Workers != 1 || sp.ActiveStreams != 0 || sp.SlotsInUse != 0 {
		t.Errorf("stream-pool gauges wrong on idle engine: %+v", sp)
	}
	if len(stats.Engine.StreamsByGraph) != 0 {
		t.Errorf("per-graph stream gauges should be empty when idle: %+v", stats.Engine.StreamsByGraph)
	}
	if stats.Requests < 2 {
		t.Errorf("request counter: %+v", stats)
	}
	if lat, ok := stats.RequestLatency["/v1/sample"]; !ok || lat.Count != 2 {
		t.Errorf("per-endpoint latency missing from stats: %+v", stats.RequestLatency)
	}
}

// TestStreamIgnoresStaleSimFidelity pins the compatibility promise for the
// stream endpoint's retired request fields, "sim_fidelity" and the
// "workers" alias of max_workers: a request still carrying one, with any
// value, streams the same bytes as one without it.
func TestStreamIgnoresStaleSimFidelity(t *testing.T) {
	ts, _ := newTestServer(t)
	registerFamily(t, ts, "f", "expander", 16)

	collect := func(body map[string]any) []string {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/graphs/f/stream", body)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream status %d", resp.StatusCode)
		}
		lines := make([]string, 4)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var line struct {
				Index  *int   `json:"index"`
				Tree   string `json:"tree"`
				Rounds int    `json:"rounds"`
				Error  string `json:"error"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			if line.Error != "" {
				t.Fatalf("stream error: %s", line.Error)
			}
			if line.Index != nil {
				lines[*line.Index] = fmt.Sprintf("%s@%d", line.Tree, line.Rounds)
			}
		}
		return lines
	}

	want := collect(map[string]any{"k": 4, "sampler": "phase", "seed_base": 3})
	for _, stale := range []struct {
		field string
		value any
	}{{"sim_fidelity", "full"}, {"sim_fidelity", "warp"}, {"workers", 1}, {"workers", -3}} {
		got := collect(map[string]any{"k": 4, "sampler": "phase", "seed_base": 3, stale.field: stale.value})
		for i := range want {
			if want[i] == "" || want[i] != got[i] {
				t.Errorf("%s %v, index %d: %q != %q", stale.field, stale.value, i, got[i], want[i])
			}
		}
	}
}
