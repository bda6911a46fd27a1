package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	spantree "repro"
	"repro/internal/obs"
)

// TestMetricsExposition is the /metrics golden test: after real traffic the
// page must parse as well-formed Prometheus text exposition (TYPE before
// samples, cumulative monotone buckets ending in +Inf, _count == +Inf) and
// carry the core server and engine families.
func TestMetricsExposition(t *testing.T) {
	ts, _ := newTestServer(t)
	registerFamily(t, ts, "c", "cycle", 8)
	for _, sampler := range []string{"wilson", "phase"} {
		resp := postJSON(t, ts.URL+"/v1/sample", map[string]any{"graph": "c", "k": 2, "sampler": sampler, "seed_base": 1})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s sample: status %d", sampler, resp.StatusCode)
		}
	}
	// An error response must land in the error counter too.
	bad := postJSON(t, ts.URL+"/v1/sample", map[string]any{"graph": "nope", "k": 1})
	bad.Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	var buf bytes.Buffer
	families, err := obs.ValidateExposition(io.TeeReader(resp.Body, &buf))
	if err != nil {
		t.Fatalf("malformed exposition: %v\n%s", err, buf.String())
	}
	if families < 10 {
		t.Errorf("only %d metric families", families)
	}
	page := buf.String()
	for _, want := range []string{
		"spantreed_requests_total ",
		"spantreed_request_errors_total ",
		`spantreed_request_duration_seconds_count{endpoint="/v1/sample"} 3`,
		"spantree_engine_samples_total 4",
		`spantree_sample_duration_seconds_count{sampler="wilson"} 2`,
		`spantree_sample_duration_seconds_count{sampler="phase"} 2`,
		"spantree_scheduler_wait_seconds_count 4",
		"spantree_stream_pool_workers 1",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestTracesRoundTrip drives a request with an explicit X-Request-ID through
// /v1/sample and reads its trace back from /v1/traces: the ID must propagate
// to the response header and the trace, and every clique superstep span must
// carry its charged rounds and words — the paper's cost model made auditable
// per request.
func TestTracesRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)
	registerFamily(t, ts, "e", "expander", 16)

	const reqID = "trace-me-7"
	body, _ := json.Marshal(map[string]any{"graph": "e", "k": 1, "sampler": "phase", "seed_base": 2})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sample", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sample status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != reqID {
		t.Errorf("response X-Request-ID = %q, want %q", got, reqID)
	}

	tresp, err := http.Get(ts.URL + "/v1/traces?limit=10")
	if err != nil {
		t.Fatal(err)
	}
	var traces struct {
		Traces []spantree.TraceSnapshot `json:"traces"`
	}
	decodeBody(t, tresp, &traces)
	var snap *spantree.TraceSnapshot
	for i := range traces.Traces {
		if traces.Traces[i].ID == reqID {
			snap = &traces.Traces[i]
		}
	}
	if snap == nil {
		t.Fatalf("trace %q not in /v1/traces (got %d traces)", reqID, len(traces.Traces))
	}
	if !snap.Complete {
		t.Error("trace not marked complete after the response")
	}
	supersteps, charged := 0, 0
	for _, sp := range snap.Spans {
		_, hasWords := sp.Attrs["words"]
		_, hasRounds := sp.Attrs["rounds"]
		if hasWords {
			supersteps++
			if !hasRounds {
				t.Errorf("superstep span %q carries words but no rounds", sp.Name)
			}
		}
		if hasRounds {
			charged++
		}
	}
	if supersteps == 0 {
		t.Error("trace has no superstep spans with charged words")
	}
	if charged < supersteps {
		t.Errorf("%d spans carry rounds, fewer than the %d superstep spans", charged, supersteps)
	}
	names := make(map[string]bool, len(snap.Spans))
	for _, sp := range snap.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"engine/sample", "engine/prepare", "engine/slot_wait", "core/phase"} {
		if !names[want] {
			t.Errorf("trace missing %q span", want)
		}
	}

	if resp, err := http.Get(ts.URL + "/v1/traces?limit=bogus"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bogus limit: status %d, want 400", resp.StatusCode)
		}
	}
}

// TestRequestIDGenerated checks that requests without an X-Request-ID still
// get one assigned and echoed.
func TestRequestIDGenerated(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID assigned to an unlabeled request")
	}
}

// TestPprofGated checks that the profiling surface exists only behind -pprof.
func TestPprofGated(t *testing.T) {
	eng, err := spantree.NewEngine(1, spantree.WithWalkLength(256))
	if err != nil {
		t.Fatal(err)
	}
	off := httptest.NewServer(newServer(eng).routes())
	t.Cleanup(off.Close)
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without -pprof: status %d, want 404", resp.StatusCode)
	}

	srv := newServer(eng)
	srv.pprof = true
	on := httptest.NewServer(srv.routes())
	t.Cleanup(on.Close)
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with -pprof: status %d, want 200", resp.StatusCode)
	}
}
