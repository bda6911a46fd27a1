package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// checkGoroutines fails the test if goroutines leaked past the baseline
// (with settle time for netpoll and body-close stragglers).
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		// Keep-alive connections pin transport goroutines; they are pooled,
		// not leaked — drop them before counting.
		if tr, ok := http.DefaultTransport.(*http.Transport); ok {
			tr.CloseIdleConnections()
		}
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d at start, %d after settle", baseline, runtime.NumGoroutine())
}

// treeAt is the stub cluster's deterministic "sampler": every stub replica
// agrees on the tree at index i, mimicking the real determinism contract.
func treeAt(i int) string { return fmt.Sprintf("tree-%d", i) }

// stubReplica serves the wire protocol over a fixed graph set. dieAfter, when
// positive, kills each stream connection after that many lines WITHOUT a
// terminal line — the kill -9 signature.
type stubReplica struct {
	name     string
	dieAfter int32 // atomic; 0 = healthy
	streams  atomic.Int32
	samples  atomic.Int32
}

func (s *stubReplica) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/graphs/{key}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(GraphInfo{Key: r.PathValue("key"), Vertices: 8, Edges: 12, Digest: "d-" + r.PathValue("key")})
	})
	mux.HandleFunc("POST /v1/graphs", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		json.NewDecoder(r.Body).Decode(&req)
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(GraphInfo{Key: req.Key, Vertices: req.N, Digest: "d-" + req.Key})
	})
	mux.HandleFunc("POST /v1/sample", func(w http.ResponseWriter, r *http.Request) {
		s.samples.Add(1)
		var req SampleRequest
		json.NewDecoder(r.Body).Decode(&req)
		trees := make([]string, req.K)
		for i := range trees {
			trees[i] = treeAt(i)
		}
		json.NewEncoder(w).Encode(SampleResult{
			Graph: req.Graph, Sampler: req.Sampler, SeedBase: req.SeedBase,
			Summary: json.RawMessage(`{"samples":` + fmt.Sprint(req.K) + `}`), Trees: trees,
		})
	})
	mux.HandleFunc("POST /v1/graphs/{key}/stream", func(w http.ResponseWriter, r *http.Request) {
		s.streams.Add(1)
		var req StreamRequest
		json.NewDecoder(r.Body).Decode(&req)
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		fl := w.(http.Flusher)
		die := int(atomic.LoadInt32(&s.dieAfter))
		for n := 0; n < req.K; n++ {
			if die > 0 && n >= die {
				// Simulate a killed replica: abort the connection mid-body so
				// the client sees a truncated stream, no terminal line.
				panic(http.ErrAbortHandler)
			}
			i := req.StartIndex + n
			enc.Encode(map[string]any{"index": i, "tree": treeAt(i), "rounds": i + 1})
			fl.Flush()
		}
		enc.Encode(map[string]any{"done": true, "samples": req.K})
	})
	return mux
}

// stubCluster boots n stub replicas and returns them with their endpoints.
func stubCluster(t *testing.T, n int) ([]*stubReplica, []string) {
	t.Helper()
	reps := make([]*stubReplica, n)
	eps := make([]string, n)
	for i := range reps {
		reps[i] = &stubReplica{name: fmt.Sprintf("r%d", i)}
		ts := httptest.NewServer(reps[i].handler())
		t.Cleanup(ts.Close)
		eps[i] = ts.URL
	}
	return reps, eps
}

// keyOwnedBy finds a graph key whose ring owner is ep, so a test can steer
// its first attempt onto a specific replica.
func keyOwnedBy(t *testing.T, fc *FailoverClient, ep string) string {
	t.Helper()
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("g%d", i)
		if fc.Replicas(k)[0] == ep {
			return k
		}
	}
	t.Fatalf("no key of 100 owned by %s", ep)
	return ""
}

func newTestFailover(t *testing.T, eps []string, opts FailoverOptions) *FailoverClient {
	t.Helper()
	fc, err := NewFailover(eps, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fc.Close)
	return fc
}

func TestHTTPClientRoundTrip(t *testing.T) {
	_, eps := stubCluster(t, 1)
	hc := NewHTTP(eps[0])
	ctx := context.Background()
	info, err := hc.Info(ctx, "g")
	if err != nil || info.Digest != "d-g" {
		t.Fatalf("Info = %+v, %v", info, err)
	}
	res, err := hc.Sample(ctx, SampleRequest{Graph: "g", K: 3, Sampler: "phase", IncludeTrees: true})
	if err != nil || len(res.Trees) != 3 || res.Trees[2] != treeAt(2) {
		t.Fatalf("Sample = %+v, %v", res, err)
	}
	st, err := hc.Stream(ctx, "g", StreamRequest{K: 4, StartIndex: 2})
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for r := range st.Results() {
		if r.Tree != treeAt(r.Index) {
			t.Errorf("index %d tree %q", r.Index, r.Tree)
		}
		got = append(got, r.Index)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[0] != 2 {
		t.Fatalf("stream window = %v", got)
	}
}

func TestHTTPClientTruncatedStream(t *testing.T) {
	reps, eps := stubCluster(t, 1)
	atomic.StoreInt32(&reps[0].dieAfter, 2)
	st, err := NewHTTP(eps[0]).Stream(context.Background(), "g", StreamRequest{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range st.Results() {
		n++
	}
	if st.Err() == nil || !errors.Is(st.Err(), errTruncated) {
		t.Fatalf("truncated stream err = %v after %d lines", st.Err(), n)
	}
}

// TestFailoverHonorsRetryAfter is the 429-backoff contract: the client's
// next-round delay must be the server's Retry-After (header and JSON body
// retry_after_seconds), not the client's own schedule.
func TestFailoverHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "7")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]any{
				"error": "graph \"g\": stream limit reached", "graph": "g",
				"retry_after_seconds": 7,
			})
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"graphs": []GraphInfo{{Key: "g"}}})
	}))
	defer ts.Close()

	fc := newTestFailover(t, []string{ts.URL}, FailoverOptions{})
	var slept []time.Duration
	fc.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	gs, err := fc.Graphs(context.Background())
	if err != nil || len(gs) != 1 {
		t.Fatalf("Graphs = %v, %v", gs, err)
	}
	if len(slept) != 1 || slept[0] != 7*time.Second {
		t.Fatalf("slept %v, want exactly the server's 7s Retry-After", slept)
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d calls, want 2", calls.Load())
	}
}

func TestRetryAfterFromBodyAloneIsParsed(t *testing.T) {
	resp := &http.Response{
		StatusCode: http.StatusTooManyRequests,
		Header:     http.Header{},
		Body:       http.NoBody,
	}
	resp.Body = httpBody(`{"error":"stream limit","retry_after_seconds":3}`)
	err := decodeAPIError(resp)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.RetryAfter != 3*time.Second || apiErr.Status != 429 {
		t.Fatalf("decoded %+v", err)
	}
}

func httpBody(s string) *bodyReader { return &bodyReader{r: strings.NewReader(s)} }

type bodyReader struct{ r *strings.Reader }

func (b *bodyReader) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *bodyReader) Close() error               { return nil }

func TestFailoverFailsOverOn5xx(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer bad.Close()
	reps, goodEps := stubCluster(t, 1)
	_ = reps

	fc := newTestFailover(t, []string{bad.URL, goodEps[0]}, FailoverOptions{})
	fc.sleep = func(context.Context, time.Duration) error { return nil }
	// Whatever the ring ordering, one endpoint always fails, so every key
	// eventually lands on the good one.
	for _, key := range []string{"a", "b", "c"} {
		if _, err := fc.Info(context.Background(), key); err != nil {
			t.Fatalf("Info(%q) = %v", key, err)
		}
	}
	m := fc.Metrics()
	if m.Attempts < 3 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestFailoverFatalOn400(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"unknown sampler"}`, http.StatusBadRequest)
	}))
	defer ts.Close()
	fc := newTestFailover(t, []string{ts.URL}, FailoverOptions{})
	_, err := fc.Sample(context.Background(), SampleRequest{Graph: "g", K: 1})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("client retried a 400 (%d calls)", calls.Load())
	}
}

func TestBreakerOpensAndSkipsDeadEndpoint(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	deadURL := dead.URL
	dead.Close() // connection refused from now on
	_, goodEps := stubCluster(t, 1)

	fc := newTestFailover(t, []string{deadURL, goodEps[0]}, FailoverOptions{FailureThreshold: 2, Cooldown: time.Hour})
	fc.sleep = func(context.Context, time.Duration) error { return nil }
	key := keyOwnedBy(t, fc, deadURL) // every attempt hits the dead replica first
	for i := 0; i < 4; i++ {
		if _, err := fc.Info(context.Background(), key); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range fc.Metrics().Endpoints {
		if h.Endpoint == deadURL && h.State != "open" {
			t.Fatalf("dead endpoint state %q after repeated failures", h.State)
		}
	}
	// With the breaker open, requests should stop attempting the dead
	// endpoint entirely.
	before := fc.Metrics().Failovers
	for i := 0; i < 3; i++ {
		if _, err := fc.Info(context.Background(), key); err != nil {
			t.Fatal(err)
		}
	}
	if after := fc.Metrics().Failovers; after != before {
		t.Fatalf("failovers grew %d -> %d with the dead endpoint's breaker open", before, after)
	}
}

// TestStreamFailoverExactlyOnce is the client-side splice contract: replica
// one dies mid-stream without a terminal line; the stream must resume on
// replica two and deliver every index exactly once with the same bytes.
func TestStreamFailoverExactlyOnce(t *testing.T) {
	reps, eps := stubCluster(t, 2)
	baseline := runtime.NumGoroutine()
	// Both replicas die after 3 lines until we heal one — exercising
	// multiple consecutive resumes is fine too, but keep it simple: first
	// replica dies mid-stream, second is healthy.
	atomic.StoreInt32(&reps[0].dieAfter, 3)

	fc := newTestFailover(t, eps, FailoverOptions{})
	fc.sleep = func(context.Context, time.Duration) error { return nil }
	const k = 10
	key := keyOwnedBy(t, fc, eps[0]) // the stream starts on the dying replica
	st, err := fc.Stream(context.Background(), key, StreamRequest{K: k, SeedBase: 5})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	for r := range st.Results() {
		seen[r.Index]++
		if r.Tree != treeAt(r.Index) {
			t.Errorf("index %d tree %q, want %q", r.Index, r.Tree, treeAt(r.Index))
		}
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if seen[i] != 1 {
			t.Errorf("index %d delivered %d times", i, seen[i])
		}
	}
	if len(seen) != k {
		t.Errorf("delivered %d distinct indices, want %d", len(seen), k)
	}
	if s0, s1 := reps[0].streams.Load(), reps[1].streams.Load(); s0+s1 < 2 {
		t.Errorf("expected a resume across replicas, stream counts %d/%d", s0, s1)
	}
	fc.Close()
	checkGoroutines(t, baseline)
}

// TestStreamResumeWindowOffsets pins that a resumed stream asks the next
// replica for the correct start_index window rather than restarting at 0.
func TestStreamResumeWindowOffsets(t *testing.T) {
	var mu sync.Mutex
	var windows [][2]int
	record := func(start, k int) {
		mu.Lock()
		windows = append(windows, [2]int{start, k})
		mu.Unlock()
	}
	die := true
	mux := func(label string) http.Handler {
		m := http.NewServeMux()
		m.HandleFunc("POST /v1/graphs/{key}/stream", func(w http.ResponseWriter, r *http.Request) {
			var req StreamRequest
			json.NewDecoder(r.Body).Decode(&req)
			record(req.StartIndex, req.K)
			enc := json.NewEncoder(w)
			fl := w.(http.Flusher)
			mu.Lock()
			thisDies := die
			die = false // only the first stream dies
			mu.Unlock()
			for n := 0; n < req.K; n++ {
				if thisDies && n >= 4 {
					panic(http.ErrAbortHandler)
				}
				i := req.StartIndex + n
				enc.Encode(map[string]any{"index": i, "tree": treeAt(i)})
				fl.Flush()
			}
			enc.Encode(map[string]any{"done": true})
		})
		return m
	}
	a := httptest.NewServer(mux("a"))
	b := httptest.NewServer(mux("b"))
	defer a.Close()
	defer b.Close()

	fc := newTestFailover(t, []string{a.URL, b.URL}, FailoverOptions{})
	fc.sleep = func(context.Context, time.Duration) error { return nil }
	st, err := fc.Stream(context.Background(), "g", StreamRequest{K: 9, StartIndex: 3})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for r := range st.Results() {
		if seen[r.Index] {
			t.Errorf("index %d duplicated", r.Index)
		}
		seen[r.Index] = true
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 12; i++ {
		if !seen[i] {
			t.Errorf("index %d missing", i)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(windows) < 2 {
		t.Fatalf("windows = %v, want an initial request plus a resume", windows)
	}
	if windows[0] != [2]int{3, 9} {
		t.Errorf("initial window = %v, want [3 9]", windows[0])
	}
	resume := windows[1]
	if resume[0] != 7 || resume[1] != 5 {
		t.Errorf("resume window = %v, want [7 5] (first 4 of the window were delivered)", resume)
	}
}

func TestHedgingFiresOnSlowPrimary(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(300 * time.Millisecond)
		json.NewEncoder(w).Encode(SampleResult{Graph: "g", Summary: json.RawMessage(`{}`)})
	}))
	defer slow.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(SampleResult{Graph: "g", Summary: json.RawMessage(`{}`)})
	}))
	defer fast.Close()

	// Make BOTH ring orderings slow-first by trying keys until the slow
	// endpoint owns one; hedging then rescues the request via the fast one.
	fc := newTestFailover(t, []string{slow.URL, fast.URL}, FailoverOptions{HedgeMin: 20 * time.Millisecond})
	key := ""
	for i := 0; i < 64 && key == ""; i++ {
		if k := fmt.Sprintf("k%d", i); fc.Replicas(k)[0] == slow.URL {
			key = k
		}
	}
	if key == "" {
		t.Skip("no key hashed onto the slow endpoint")
	}
	start := time.Now()
	res, err := fc.Sample(context.Background(), SampleRequest{Graph: key, K: 1})
	if err != nil || res == nil {
		t.Fatalf("Sample = %v, %v", res, err)
	}
	if elapsed := time.Since(start); elapsed >= 300*time.Millisecond {
		t.Errorf("hedge did not rescue the slow primary (took %v)", elapsed)
	}
	if m := fc.Metrics(); m.Hedges == 0 {
		t.Errorf("metrics = %+v, want hedges > 0", m)
	}
}
