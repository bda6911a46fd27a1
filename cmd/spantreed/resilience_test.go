package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	spantree "repro"
	"repro/internal/faultinject"
)

// TestAuthOverTLS runs the full middleware stack behind TLS: the handshake
// terminates, the bearer-token gate still rejects and admits exactly as over
// plaintext, and an authenticated request round-trips.
func TestAuthOverTLS(t *testing.T) {
	eng, err := spantree.NewEngine(1, spantree.WithWalkLength(256))
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(eng)
	srv.setAuthToken("sesame")
	ts := httptest.NewTLSServer(srv.routes())
	defer ts.Close()
	client := ts.Client()

	get := func(token string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/graphs", nil)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := get("")
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated over TLS: status %d, want 401", resp.StatusCode)
	}
	resp = get("sesame")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("authenticated over TLS: status %d, want 200", resp.StatusCode)
	}
	if resp.TLS == nil {
		t.Error("response carried no TLS connection state — the handshake never happened")
	}
}

// TestRejection429ReportsQueue is the overload surface over the wire: with a
// 1-stream cap and a depth-1 admission queue, the first extra request WAITS
// (no 429), and only the next one is rejected — with a Retry-After header and
// live queue stats (queued, queue_wait_p50_ms) in the body.
func TestRejection429ReportsQueue(t *testing.T) {
	eng, err := spantree.NewEngine(1, spantree.WithWalkLength(256),
		spantree.WithMaxStreamsPerGraph(1), spantree.WithAdmissionQueue(1))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng).routes())
	t.Cleanup(ts.Close)
	// Aldous-Broder on a lollipop graph has Θ(n³) cover time per sample —
	// slow enough that the holder is still mid-batch throughout the test.
	registerFamily(t, ts, "c", "lollipop", 192)

	// Holder: occupies the graph's single stream slot.
	body, _ := json.Marshal(map[string]any{"k": 512, "sampler": "aldous", "max_workers": 1, "seed_base": 1})
	holdCtx, holdCancel := context.WithCancel(context.Background())
	t.Cleanup(holdCancel)
	holdReq, err := http.NewRequestWithContext(holdCtx, http.MethodPost, ts.URL+"/v1/graphs/c/stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	holdResp, err := http.DefaultClient.Do(holdReq)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { holdResp.Body.Close() })
	if _, err := bufio.NewReader(holdResp.Body).ReadString('\n'); err != nil {
		t.Fatalf("reading first stream line: %v", err)
	}

	// Second request: parks in the admission queue instead of 429ing.
	parkCtx, parkCancel := context.WithCancel(context.Background())
	t.Cleanup(parkCancel)
	parkBody, _ := json.Marshal(map[string]any{"k": 1, "sampler": "wilson"})
	parkReq, err := http.NewRequestWithContext(parkCtx, http.MethodPost, ts.URL+"/v1/graphs/c/stream", bytes.NewReader(parkBody))
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan int, 1)
	go func() {
		resp, err := http.DefaultClient.Do(parkReq)
		if err != nil {
			parked <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		parked <- resp.StatusCode
	}()
	deadline := time.Now().Add(10 * time.Second)
	for eng.Metrics().StreamPool.QueuedStreams != 1 {
		select {
		case code := <-parked:
			t.Fatalf("request that should have queued returned status %d", code)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("second request never parked in the admission queue")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Third request: cap reached AND queue full — only now a 429, carrying
	// the live queue state.
	third := postJSON(t, ts.URL+"/v1/graphs/c/stream", map[string]any{"k": 1, "sampler": "wilson"})
	if third.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request beyond the full queue: status %d, want 429", third.StatusCode)
	}
	if ra := third.Header.Get("Retry-After"); ra == "" {
		t.Error("429 missing Retry-After header")
	}
	var rejection struct {
		Error             string  `json:"error"`
		Graph             string  `json:"graph"`
		ActiveStreams     int     `json:"active_streams"`
		Queued            int     `json:"queued"`
		QueueWaitP50MS    float64 `json:"queue_wait_p50_ms"`
		RetryAfterSeconds int     `json:"retry_after_seconds"`
	}
	decodeBody(t, third, &rejection)
	if rejection.Graph != "c" || rejection.ActiveStreams != 1 {
		t.Errorf("429 body: %+v", rejection)
	}
	if rejection.Queued != 1 {
		t.Errorf("429 body queued = %d, want 1 (the parked request)", rejection.Queued)
	}
	if rejection.QueueWaitP50MS < 0 {
		t.Errorf("429 body queue_wait_p50_ms = %v", rejection.QueueWaitP50MS)
	}
	if rejection.RetryAfterSeconds < 1 {
		t.Errorf("429 body retry_after_seconds = %d, want >= 1", rejection.RetryAfterSeconds)
	}

	// Dropping the holder admits the parked request, which then completes.
	holdCancel()
	select {
	case code := <-parked:
		if code != http.StatusOK {
			t.Errorf("parked request finished with status %d, want 200", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("parked request never admitted after the holder dropped")
	}
}

// TestRetryAfterSeconds pins the header computation: no data floors to 1,
// estimates round up, and pathological estimates clamp to 60.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		est  time.Duration
		want int
	}{
		{0, 1},
		{10 * time.Millisecond, 1},
		{1200 * time.Millisecond, 2},
		{59 * time.Second, 59},
		{5 * time.Minute, 60},
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(spantree.QueueStats{EstimatedWait: tc.est}); got != tc.want {
			t.Errorf("retryAfterSeconds(est=%v) = %d, want %d", tc.est, got, tc.want)
		}
	}
}

// TestRequestDeadline504 covers per-request deadlines over the wire: a
// deadline_ms the batch cannot meet returns 504 (the typed deadline error,
// not a generic 500), the server-wide -request-timeout default applies when
// the request sets none, and the same request succeeds once samples are fast
// again.
func TestRequestDeadline504(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	eng, err := spantree.NewEngine(1, spantree.WithWalkLength(256))
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(eng)
	srv.reqTimeout = 100 * time.Millisecond // the -request-timeout flag's landing spot
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	registerFamily(t, ts, "c", "cycle", 8)

	// Each sample stalls 20ms; 200 of them cannot fit any 100ms budget.
	if err := faultinject.Set(faultinject.PointSample, faultinject.Fault{Delay: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	slow := map[string]any{"graph": "c", "k": 200, "sampler": "wilson", "deadline_ms": 100}
	resp := postJSON(t, ts.URL+"/v1/sample", slow)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("expired deadline_ms: status %d, want 504", resp.StatusCode)
	}

	// No deadline_ms: the server default takes over.
	resp = postJSON(t, ts.URL+"/v1/sample", map[string]any{"graph": "c", "k": 200, "sampler": "wilson"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("server default request timeout: status %d, want 504", resp.StatusCode)
	}

	faultinject.Reset()
	resp = postJSON(t, ts.URL+"/v1/sample", slow)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("fast batch under the same deadline: status %d, want 200", resp.StatusCode)
	}
}

// TestSamplerPanic500DaemonSurvives injects a one-shot worker panic: the
// poisoned request fails as a 500, the panic counter reaches the Prometheus
// surface, and the daemon keeps serving — the next identical request
// succeeds.
func TestSamplerPanic500DaemonSurvives(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	ts, eng := newTestServer(t)
	registerFamily(t, ts, "c", "cycle", 8)

	if err := faultinject.Set(faultinject.PointSample, faultinject.Fault{Panic: "chaos", Times: 1}); err != nil {
		t.Fatal(err)
	}
	req := map[string]any{"graph": "c", "k": 2, "sampler": "wilson", "seed_base": 7}
	resp := postJSON(t, ts.URL+"/v1/sample", req)
	var errBody struct {
		Error string `json:"error"`
	}
	decodeBody(t, resp, &errBody)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked request: status %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(errBody.Error, "panicked") {
		t.Errorf("500 body does not name the panic: %q", errBody.Error)
	}

	resp = postJSON(t, ts.URL+"/v1/sample", req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon did not survive the panic: status %d, want 200", resp.StatusCode)
	}
	if got := eng.Metrics().Panics; got != 1 {
		t.Errorf("engine panic counter = %d, want 1", got)
	}
	metrics := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "spantree_engine_panics_total 1") {
		t.Error("/metrics missing spantree_engine_panics_total 1")
	}
}

// TestOverBudgetSegmentLength400DaemonSurvives sends doubling requests whose
// segment length would need tens of gigabytes of walk state, or is so close
// to math.MaxInt that rounding it up to a power of two overflows. Each must
// be refused as a 400 before anything is allocated, and the daemon must keep
// answering /healthz.
func TestOverBudgetSegmentLength400DaemonSurvives(t *testing.T) {
	ts, _ := newTestServer(t)
	registerFamily(t, ts, "c", "cycle", 8)

	for _, l := range []int{2000000000, 5000000000000000000, math.MaxInt} {
		resp := postJSON(t, ts.URL+"/v1/graphs/c/stream", map[string]any{"k": 1, "sampler": "doubling", "segment_length": l})
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("segment length %d: status %d, want 400", l, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz after over-budget request: status %d, want 200", resp.StatusCode)
	}
}
