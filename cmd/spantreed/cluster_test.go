package main

// Cluster-level tests: real engines behind real HTTP servers, exercised
// through the public client package and the router. These are the
// determinism gate for the replicated tier — two independently booted
// replicas must produce byte-identical trees AND statistics for the same
// (graph, spec, seed base), and a stream spliced across a replica death must
// deliver exactly the same bytes as an uninterrupted single-node stream.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	spantree "repro"
	"repro/client"
)

// lineBudget lets a test kill a replica mid-stream deterministically: once
// the server has written its line budget (newline-delimited, matching the
// NDJSON framing), every further write aborts the connection without a
// terminal line — the same wire signature as kill -9.
type lineBudget struct {
	inner  http.Handler
	budget atomic.Int64
}

func newLineBudget(inner http.Handler) *lineBudget {
	lb := &lineBudget{inner: inner}
	lb.budget.Store(1 << 40) // effectively unlimited until a test arms it
	return lb
}

func (lb *lineBudget) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	lb.inner.ServeHTTP(&budgetWriter{ResponseWriter: w, lb: lb}, r)
}

type budgetWriter struct {
	http.ResponseWriter
	lb *lineBudget
}

func (w *budgetWriter) Write(p []byte) (int, error) {
	if w.lb.budget.Add(-int64(bytes.Count(p, []byte("\n")))) < 0 {
		panic(http.ErrAbortHandler)
	}
	return w.ResponseWriter.Write(p)
}

func (w *budgetWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// newReplica boots a real engine behind a real server, wrapped in a
// lineBudget so tests can kill it mid-stream.
func newReplica(t *testing.T, workers int) (*httptest.Server, *lineBudget) {
	t.Helper()
	eng, err := spantree.NewEngine(workers, spantree.WithWalkLength(256))
	if err != nil {
		t.Fatal(err)
	}
	lb := newLineBudget(newServer(eng).routes())
	ts := httptest.NewServer(lb)
	t.Cleanup(ts.Close)
	return ts, lb
}

// registerEverywhere registers the same graph directly on each replica, the
// way the router's fan-out does.
func registerEverywhere(t *testing.T, reg client.RegisterRequest, replicas ...*httptest.Server) {
	t.Helper()
	for _, ts := range replicas {
		if _, err := client.NewHTTP(ts.URL).Register(context.Background(), reg); err != nil {
			t.Fatalf("register on %s: %v", ts.URL, err)
		}
	}
}

// clusterKeyOwnedBy finds a registerable key whose primary replica is ep, so
// tests can steer traffic onto the replica they intend to kill.
func clusterKeyOwnedBy(t *testing.T, fc *client.FailoverClient, ep string) string {
	t.Helper()
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("graph-%d", i)
		if reps := fc.Replicas(key); len(reps) > 0 && reps[0] == ep {
			return key
		}
	}
	t.Fatalf("no key of 400 owned by %s", ep)
	return ""
}

// collectStream drains a client stream into an index-keyed map, failing on
// duplicate indices (the exactly-once half of the gate).
func collectStream(t *testing.T, st *client.Stream) map[int]client.Result {
	t.Helper()
	got := map[int]client.Result{}
	for res := range st.Results() {
		if _, dup := got[res.Index]; dup {
			t.Fatalf("duplicate index %d", res.Index)
		}
		got[res.Index] = res
	}
	return got
}

// leakCheck fails the test if goroutines outlive the cluster teardown.
func leakCheck(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			http.DefaultTransport.(*http.Transport).CloseIdleConnections()
			if runtime.NumGoroutine() <= base+2 {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), base)
	})
}

// TestClusterCrossReplicaDeterminism is the core gate: two replicas with
// different worker counts (different scheduling, different completion order)
// must return byte-identical trees, identical per-index statistics, and
// byte-identical /v1/audit bodies for the same request.
func TestClusterCrossReplicaDeterminism(t *testing.T) {
	tsA, _ := newReplica(t, 1)
	tsB, _ := newReplica(t, 4)
	reg := client.RegisterRequest{Key: "gate", Family: "expander", N: 48, Seed: 7}
	registerEverywhere(t, reg, tsA, tsB)
	ctx := context.Background()

	var streams []map[int]client.Result
	for _, ts := range []*httptest.Server{tsA, tsB} {
		st, err := client.NewHTTP(ts.URL).Stream(ctx, "gate", client.StreamRequest{K: 16, Sampler: "wilson", SeedBase: 11})
		if err != nil {
			t.Fatalf("stream on %s: %v", ts.URL, err)
		}
		got := collectStream(t, st)
		if err := st.Err(); err != nil {
			t.Fatalf("stream on %s ended: %v", ts.URL, err)
		}
		if len(got) != 16 {
			t.Fatalf("stream on %s delivered %d results, want 16", ts.URL, len(got))
		}
		streams = append(streams, got)
	}
	for i := 0; i < 16; i++ {
		a, b := streams[0][i], streams[1][i]
		if a.Tree == "" {
			t.Fatalf("index %d: empty tree", i)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("index %d diverges across replicas:\n  workers=1: %+v\n  workers=4: %+v", i, a, b)
		}
	}

	// Audit responses must agree byte-for-byte — summary float formatting
	// included — because the CI smoke diffs them with jq. Audit caps the
	// exact tree count it will verify, so it runs on a small cycle.
	registerEverywhere(t, client.RegisterRequest{Key: "gate-audit", Family: "cycle", N: 12, Seed: 7}, tsA, tsB)
	var audits []map[string]json.RawMessage
	for _, ts := range []*httptest.Server{tsA, tsB} {
		raw, err := client.NewHTTP(ts.URL).Audit(ctx, client.SampleRequest{Graph: "gate-audit", K: 8, Sampler: "wilson", SeedBase: 11, IncludeTrees: true})
		if err != nil {
			t.Fatalf("audit on %s: %v", ts.URL, err)
		}
		fields := map[string]json.RawMessage{}
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatalf("audit body on %s: %v", ts.URL, err)
		}
		delete(fields, "elapsed_ms") // wall-clock, legitimately differs
		audits = append(audits, fields)
	}
	for field, a := range audits[0] {
		if b := audits[1][field]; !bytes.Equal(a, b) {
			t.Errorf("audit field %q diverges across replicas:\n  A: %s\n  B: %s", field, a, b)
		}
	}
	if len(audits[0]) != len(audits[1]) {
		t.Errorf("audit field sets diverge: %d vs %d", len(audits[0]), len(audits[1]))
	}
}

// TestClusterFailoverKillReplicaMidStream kills the serving replica after 6
// stream lines and requires the spliced stream to be indistinguishable from
// an uninterrupted one: every index exactly once, every byte identical.
func TestClusterFailoverKillReplicaMidStream(t *testing.T) {
	leakCheck(t)
	tsA, lbA := newReplica(t, 2)
	tsB, _ := newReplica(t, 2)

	fc, err := client.NewFailover([]string{tsA.URL, tsB.URL}, client.FailoverOptions{
		Replication:   2,
		HedgeQuantile: -1, // hedging off: this test is about failover alone
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	key := clusterKeyOwnedBy(t, fc, tsA.URL)
	reg := client.RegisterRequest{Key: key, Family: "expander", N: 48, Seed: 7}
	registerEverywhere(t, reg, tsA, tsB)
	ctx := context.Background()
	const k = 24

	// Uninterrupted baseline from the replica that will survive.
	baseSt, err := client.NewHTTP(tsB.URL).Stream(ctx, key, client.StreamRequest{K: k, Sampler: "wilson", SeedBase: 3})
	if err != nil {
		t.Fatal(err)
	}
	baseline := collectStream(t, baseSt)
	if err := baseSt.Err(); err != nil {
		t.Fatal(err)
	}

	// Arm replica A: 6 more lines, then every connection dies mid-write.
	lbA.budget.Store(6)

	st, err := fc.Stream(ctx, key, client.StreamRequest{K: k, Sampler: "wilson", SeedBase: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := collectStream(t, st)
	if err := st.Err(); err != nil {
		t.Fatalf("spliced stream ended: %v", err)
	}
	if len(got) != k {
		t.Fatalf("spliced stream delivered %d results, want %d", len(got), k)
	}
	if !reflect.DeepEqual(got, baseline) {
		t.Errorf("spliced stream diverges from uninterrupted baseline")
	}
	if m := fc.Metrics(); m.Failovers == 0 {
		t.Errorf("expected at least one failover, metrics: %+v", m)
	}
}

func testLogger(t *testing.T) *slog.Logger {
	t.Helper()
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newTestRouter stands a router over the given replicas and returns its
// public URL.
func newTestRouter(t *testing.T, replicas ...*httptest.Server) (*httptest.Server, *router) {
	t.Helper()
	peers := make([]string, len(replicas))
	for i, ts := range replicas {
		peers[i] = ts.URL
	}
	rt, err := newRouter(routerConfig{peers: peers, replication: 2}, testLogger(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.fc.Close() })
	ts := httptest.NewServer(rt.routes())
	t.Cleanup(ts.Close)
	return ts, rt
}

// streamViaHTTP reads a raw NDJSON stream the way curl does, returning the
// data lines by index plus the terminal line.
func streamViaHTTP(t *testing.T, url, key string, body any) (map[int]client.Line, client.Line) {
	t.Helper()
	resp := postJSON(t, url+"/v1/graphs/"+key+"/stream", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	lines := map[int]client.Line{}
	var terminal client.Line
	dec := json.NewDecoder(resp.Body)
	for {
		var ln client.Line
		if err := dec.Decode(&ln); err != nil {
			t.Fatalf("decoding stream: %v (got %d lines)", err, len(lines))
		}
		if ln.Index == nil {
			terminal = ln
			break
		}
		if _, dup := lines[*ln.Index]; dup {
			t.Fatalf("duplicate index %d", *ln.Index)
		}
		idx := *ln.Index
		ln.Index = &idx
		lines[idx] = ln
	}
	return lines, terminal
}

// TestRouterProxiesStreamAcrossReplicaDeath registers through the router,
// streams through the router, kills the serving replica mid-stream, and
// requires the caller-visible stream to be exactly-once, complete, and
// identical (tree bytes and statistics) to a direct single-node stream, with
// a clean terminal done line.
func TestRouterProxiesStreamAcrossReplicaDeath(t *testing.T) {
	leakCheck(t)
	tsA, lbA := newReplica(t, 2)
	tsB, _ := newReplica(t, 2)
	rts, rt := newTestRouter(t, tsA, tsB)

	key := clusterKeyOwnedBy(t, rt.fc, tsA.URL)
	resp := postJSON(t, rts.URL+"/v1/graphs", client.RegisterRequest{Key: key, Family: "expander", N: 48, Seed: 7})
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register via router: status %d", resp.StatusCode)
	}

	const k = 24
	spec := map[string]any{"k": k, "sampler": "wilson", "seed_base": 9}
	baseline, baseTerm := streamViaHTTP(t, tsB.URL, key, spec)
	if !baseTerm.Done || baseTerm.Error != "" {
		t.Fatalf("baseline terminal: %+v", baseTerm)
	}

	lbA.budget.Store(6)
	got, term := streamViaHTTP(t, rts.URL, key, spec)
	if !term.Done || term.Error != "" {
		t.Fatalf("router terminal after replica death: %+v", term)
	}
	if len(got) != k {
		t.Fatalf("router stream delivered %d lines, want %d", len(got), k)
	}
	for i := 0; i < k; i++ {
		a, b := baseline[i], got[i]
		if a.Tree != b.Tree || a.Rounds != b.Rounds || a.Supersteps != b.Supersteps ||
			a.TotalWords != b.TotalWords || a.WalkSteps != b.WalkSteps {
			t.Errorf("index %d: router stream diverges from single-node:\n  direct: %+v\n  router: %+v", i, a, b)
		}
	}

	// The routing layer must have recorded the failover and still report
	// itself ready (one peer is down, one is healthy).
	if m := rt.fc.Metrics(); m.Failovers == 0 {
		t.Errorf("expected failover in router metrics: %+v", m)
	}
	readyResp, err := http.Get(rts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	readyResp.Body.Close()
	if readyResp.StatusCode != http.StatusOK {
		t.Errorf("router /readyz after single replica death: status %d", readyResp.StatusCode)
	}
}

// TestRouterReplaysRegistrationOn404 models a replica restart that lost its
// in-memory registry: the graph is deregistered behind the router's back on
// every replica, and the next stream, and after a second wipe the next
// sample, through the router must transparently re-register from the replay
// table and succeed.
func TestRouterReplaysRegistrationOn404(t *testing.T) {
	tsA, _ := newReplica(t, 1)
	tsB, _ := newReplica(t, 1)
	rts, rt := newTestRouter(t, tsA, tsB)
	ctx := context.Background()

	reg := client.RegisterRequest{Key: "amnesia", Family: "cycle", N: 16, Seed: 2}
	resp := postJSON(t, rts.URL+"/v1/graphs", reg)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register via router: status %d", resp.StatusCode)
	}

	// Wipe the graph on every replica directly, as if both restarted.
	wipe := func() {
		t.Helper()
		for _, ts := range []*httptest.Server{tsA, tsB} {
			if err := client.NewHTTP(ts.URL).Deregister(ctx, "amnesia"); err != nil {
				t.Fatalf("deregister behind router's back: %v", err)
			}
		}
	}

	wipe()
	lines, term := streamViaHTTP(t, rts.URL, "amnesia", map[string]any{"k": 4, "sampler": "wilson", "seed_base": 1})
	if !term.Done || term.Error != "" || len(lines) != 4 {
		t.Fatalf("stream after cluster-wide amnesia: %d lines, terminal %+v; want 4 lines and done via replay", len(lines), term)
	}

	wipe()
	resp = postJSON(t, rts.URL+"/v1/sample", client.SampleRequest{Graph: "amnesia", K: 4, Sampler: "wilson", SeedBase: 1})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sample after cluster-wide amnesia: status %d, want 200 via replay", resp.StatusCode)
	}
	var res client.SampleResult
	decodeBody(t, resp, &res)
	if len(res.Summary) == 0 {
		t.Error("replayed sample returned empty summary")
	}
	if rt.replayed.Load() == 0 && func() bool {
		rt.regMu.Lock()
		defer rt.regMu.Unlock()
		_, ok := rt.registrations["amnesia"]
		return !ok
	}() {
		t.Error("replay table lost the registration")
	}
}

// TestRouterMetricsAndStats sanity-checks the router's observability
// surface: Prometheus metrics expose per-peer health and routing counters,
// and /v1/stats reports the registration table.
func TestRouterMetricsAndStats(t *testing.T) {
	tsA, _ := newReplica(t, 1)
	tsB, _ := newReplica(t, 1)
	rts, _ := newTestRouter(t, tsA, tsB)

	resp := postJSON(t, rts.URL+"/v1/graphs", client.RegisterRequest{Key: "m", Family: "cycle", N: 12, Seed: 1})
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d", resp.StatusCode)
	}
	resp = postJSON(t, rts.URL+"/v1/sample", client.SampleRequest{Graph: "m", K: 2, Sampler: "wilson"})
	resp.Body.Close()

	metResp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(metResp.Body)
	metResp.Body.Close()
	for _, want := range []string{
		"spantreed_router_peer_healthy",
		"spantreed_router_attempts_total",
		"spantreed_router_registrations 1",
		"spantreed_requests_total",
	} {
		if !bytes.Contains(body.Bytes(), []byte(want)) {
			t.Errorf("router /metrics missing %q", want)
		}
	}

	statsResp, err := http.Get(rts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Mode          string `json:"mode"`
		Registrations int    `json:"registrations"`
	}
	decodeBody(t, statsResp, &stats)
	if stats.Mode != "router" || stats.Registrations != 1 {
		t.Errorf("stats = %+v, want mode=router registrations=1", stats)
	}
}
