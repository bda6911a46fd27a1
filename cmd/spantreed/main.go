// Command spantreed serves the batch spanning-tree sampling engine over
// HTTP/JSON: register graphs (or generate named families), draw batches of
// trees with deterministic seed derivation, audit sampler uniformity against
// exact tree counts, and read engine metrics.
//
// Usage:
//
//	spantreed -addr :8080 -workers 8 -max-streams-per-graph 4
//
// Concurrent streams share ONE engine-wide worker pool (-workers slots,
// default GOMAXPROCS) arbitrated by a weighted scheduler: each stream
// receives slot grants proportional to its "weight" (default 1.0, settable
// per request), capped by its "max_workers" ("workers" on /v1/sample and
// /v1/audit). Slots cover computation only —
// a stream whose NDJSON consumer reads slowly self-throttles on its bounded
// result buffer and its slots flow to faster streams instead of being
// pinned. -max-streams-per-graph bounds concurrent sampling jobs per graph
// — /v1/sample and /v1/audit batches run as streams internally and count
// toward the cap too. With -admission-queue N, requests at the cap wait in a
// bounded per-graph FIFO (hold-and-wait) and are admitted as streams close;
// only a full queue (or a deadline that provably cannot be met) rejects with
// 429, a Retry-After header computed from live queue stats, and a JSON body
// carrying the graph's stream gauges plus queued/queue_wait_p50_ms. Requests
// may carry "deadline_ms" (default: -request-timeout) covering admission
// wait, scheduling, and sampling; an expired deadline cancels the request
// with a 504-mapped typed error. A sampler panic fails only its own request
// (500, counted in /metrics); the daemon stays up. None of this changes
// response bytes: the tree at index i is a pure function of (graph, sampler
// spec, seed_base, i) at any weight, worker count, queueing, or consumption
// order.
//
// The matrix scratch-pool counters are reported under /v1/stats. Samplers
// run the simulated clique on its charged executor and sequential dense
// kernels:
// AVX-512 or AVX tiles where the CPU has them, portable Go otherwise, with
// the same bytes. The startup "listening" log line names the path as
// matrix_kernel (avx512, avx or go).
// The simulator-fidelity field that older clients may still send is
// ignored: it never changed the output, and no request selects an executor.
//
// Observability: every request gets a request ID (propagated from an
// X-Request-ID header when the client sends one, generated otherwise),
// echoed in the response header and in the structured key=value request log.
// Requests carrying an explicit X-Request-ID are always traced end to end —
// HTTP handling, engine scheduling, and every simulated clique superstep
// with its charged rounds/words — and the trace is retrievable from
// /v1/traces by that ID; other requests are trace-sampled at the
// -trace-every rate. GET /metrics serves the Prometheus text exposition
// (counters, gauges, and latency histograms; no external dependencies);
// -pprof additionally mounts net/http/pprof under /debug/pprof/. All of it
// is pure observation: tracing and metrics never feed back into sampling,
// so responses are byte-identical at any observability setting.
//
// Endpoints (the request bodies and the NDJSON line are the client
// package's RegisterRequest, SampleRequest, StreamRequest and Line):
//
//	GET    /healthz              liveness probe (200 for the process lifetime)
//	GET    /readyz               readiness: 200 once warm, 503 while loading or draining
//	GET    /metrics              Prometheus text exposition
//	GET    /v1/traces            recent request traces as JSON (?limit=N)
//	GET    /v1/graphs            list registered graphs
//	POST   /v1/graphs            register: {"key","family","n","seed"} or {"key","n","edges":[[u,v,w?],...]}
//	GET    /v1/graphs/{key}        one graph's info
//	DELETE /v1/graphs/{key}        deregister
//	POST   /v1/graphs/{key}/stream {"k","sampler","seed_base","start_index","weight","max_workers","deadline_ms",
//	                               "segment_length","max_steps","root"}; NDJSON, one line per sample as
//	                               workers finish, then a terminal done/error line
//	POST   /v1/sample              {"graph","k","sampler","seed_base","workers","deadline_ms","include_trees"}
//	POST   /v1/audit               same body; adds the TV audit against the exact tree count
//	GET    /v1/stats               engine + request metrics
//	GET    /v1/ring                router mode only: membership, and with ?key= that key's replica order
//
// Persistence: -data-dir persists the graph registry only, as an on-disk
// manifest (manifest.json) of the registered graphs. A restarted server
// re-registers them at boot and rebuilds each one's phase-0 prepared state
// cold before /readyz turns 200, the same build an in-memory server runs on
// a graph's first request. Responses are byte-identical with or without
// -data-dir. Empty (the default) keeps the server fully in-memory.
//
// Auth: -auth-token (or $SPANTREED_AUTH_TOKEN) requires "Authorization:
// Bearer <token>" on every /v1/* endpoint (401 otherwise); /healthz,
// /metrics, and /debug/pprof stay open for probes and scrapers. Empty (the
// default) leaves the API open. -tls-cert/-tls-key serve HTTPS instead of
// HTTP — set both to close the hardening-before-exposure loop alongside
// auth.
//
// Clustering: -mode router turns the binary into a stateless coordinator
// over -peers (comma-separated replica endpoints): it serves the same /v1/*
// surface, consistent-hashes each graph key onto -replication replicas,
// fails over on connect errors/timeouts/5xx, probes peer /readyz every
// -probe-interval, and replays graph registrations onto recovered replicas.
// Streams proxied through the router splice across a replica death with
// exactly-once indices. -peer-auth-token (or $SPANTREED_PEER_AUTH_TOKEN)
// is the bearer token the router sends to replicas; -auth-token still
// guards the router's own /v1/* surface. See cmd/spantreed/router.go and
// the client package for the pieces this mode composes.
//
// Batches are byte-identical for a fixed (graph, sampler spec, seed_base, k)
// regardless of worker count; stream lines may arrive out of index order but
// each index always carries the same tree. Request cancellation is honest:
// a client that disconnects mid-batch aborts its in-flight work instead of
// burning the pool. The server shuts down gracefully on SIGINT or SIGTERM:
// it drains in-flight requests up to -drain-timeout, then cancels the
// remaining streams (clients get a typed 503-mapped error).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	spantree "repro"
	"repro/client"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spantreed:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		mode          = flag.String("mode", "serve", `"serve" (single replica) or "router" (cluster coordinator proxying /v1/* onto -peers)`)
		peers         = flag.String("peers", "", "router mode: comma-separated replica endpoints (e.g. http://10.0.0.1:8080,http://10.0.0.2:8080)")
		replication   = flag.Int("replication", 2, "router mode: replicas serving each graph key (R-way consistent-hash replica sets; 0 or >= peer count: every peer)")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "router mode: peer /readyz probe period feeding the per-peer circuit breakers (0: passive marking only)")
		peerToken     = flag.String("peer-auth-token", "", "router mode: bearer token sent to replicas (empty: $SPANTREED_PEER_AUTH_TOKEN, else the incoming -auth-token)")
		workers       = flag.Int("workers", 0, "engine-wide stream worker pool width shared by all concurrent streams and batches (0: GOMAXPROCS)")
		maxStreams    = flag.Int("max-streams-per-graph", 0, "max concurrent sampling jobs per graph (streams AND /v1/sample | /v1/audit batches); excess requests get 429 (0: unlimited)")
		traceEvery    = flag.Int("trace-every", 0, "trace 1 in every N unlabeled requests (0: default 1/64, negative: only X-Request-ID requests)")
		traceRing     = flag.Int("trace-ring", 0, "recent traces retained for /v1/traces (0: default 64)")
		pprofEnabled  = flag.Bool("pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/")
		dataDir       = flag.String("data-dir", "", "registry directory: persists the registered graph set across restarts; prepared state is rebuilt on boot (empty: in-memory only)")
		authToken     = flag.String("auth-token", "", "bearer token required on /v1/* endpoints (empty: $SPANTREED_AUTH_TOKEN; both empty: no auth)")
		admitQueue    = flag.Int("admission-queue", 0, "per-graph admission queue depth: requests at the -max-streams-per-graph cap wait (hold-and-wait) instead of 429ing until this many are queued (0: reject immediately at the cap)")
		reqTimeout    = flag.Duration("request-timeout", 0, "default per-request deadline covering admission wait, scheduling, and sampling; requests may set their own deadline_ms (0: no default)")
		tlsCert       = flag.String("tls-cert", "", "TLS certificate file; with -tls-key, serve HTTPS instead of HTTP")
		tlsKey        = flag.String("tls-key", "", "TLS private key file")
		drainTimeout  = flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown budget: SIGTERM waits this long for in-flight requests, then cancels the remaining streams")
	)
	flag.Parse()

	if (*tlsCert == "") != (*tlsKey == "") {
		return errors.New("-tls-cert and -tls-key must be set together")
	}

	token := *authToken
	if token == "" {
		token = os.Getenv("SPANTREED_AUTH_TOKEN")
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	lc := listenConfig{addr: *addr, tlsCert: *tlsCert, tlsKey: *tlsKey, drainTimeout: *drainTimeout}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	switch *mode {
	case "serve":
		if *peers != "" {
			return errors.New("-peers is only meaningful with -mode router")
		}
	case "router":
		outbound := *peerToken
		if outbound == "" {
			outbound = os.Getenv("SPANTREED_PEER_AUTH_TOKEN")
		}
		if outbound == "" {
			outbound = token
		}
		rt, err := newRouter(routerConfig{
			peers:         strings.Split(*peers, ","),
			replication:   *replication,
			probeInterval: *probeInterval,
			authToken:     token,
			peerToken:     outbound,
		}, logger)
		if err != nil {
			return err
		}
		defer rt.fc.Close()
		logger.Info("routing", "addr", *addr, "peers", rt.fc.Endpoints(), "replication", *replication, "probe_interval", *probeInterval, "auth", token != "", "tls", *tlsCert != "")
		return rt.serve(ctx, lc, rt.routes(), nil)
	default:
		return fmt.Errorf("unknown -mode %q (want serve or router)", *mode)
	}

	eng, err := spantree.NewEngine(*workers,
		spantree.WithMaxStreamsPerGraph(*maxStreams),
		spantree.WithAdmissionQueue(*admitQueue),
		spantree.WithTraceSampling(*traceEvery),
		spantree.WithTraceRing(*traceRing),
		spantree.WithDataDir(*dataDir))
	if err != nil {
		return err
	}
	srv := newServer(eng)
	srv.log = logger
	srv.pprof = *pprofEnabled
	srv.reqTimeout = *reqTimeout
	srv.setAuthToken(token)

	// Readiness: report loading until every registered graph's prepared
	// state is built (graphs rehydrated from -data-dir are prepared cold),
	// so a router probing /readyz never routes onto a still-preparing
	// replica. /healthz is live the whole time.
	srv.setReady(readyLoading)
	go func() {
		if err := eng.Warmup(ctx); err != nil {
			logger.Warn("warmup", "err", err)
		}
		srv.setReady(readyWarm)
		logger.Info("ready", "graphs", len(eng.Keys()))
	}()

	// matrix_kernel ties a throughput number to the dense-kernel path that
	// produced it: a power-table squaring at n=96 is about 1.5x faster on
	// the avx512 path than on avx, and about 7x slower on go than on avx.
	logger.Info("listening", "addr", *addr, "workers", eng.Workers(), "matrix_kernel", matrix.Kernel(),
		"pprof", *pprofEnabled, "data_dir", *dataDir, "auth", token != "", "tls", *tlsCert != "")
	// Past the drain budget the remaining streams are cancelled through the
	// deadline plumbing.
	return srv.serve(ctx, lc, srv.routes(), func() int { return eng.AbortStreams(nil) })
}

// server wires the engine to HTTP handlers behind the shared front.
type server struct {
	*front
	eng   *spantree.Engine
	pprof bool
	// reqTimeout, when positive, is the default per-request deadline applied
	// to sampling requests that don't carry their own deadline_ms.
	reqTimeout time.Duration
}

func newServer(eng *spantree.Engine) *server {
	return &server{front: newFront(eng.Tracer()), eng: eng}
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/graphs", s.handleListGraphs)
	mux.HandleFunc("POST /v1/graphs", s.handleRegisterGraph)
	mux.HandleFunc("GET /v1/graphs/{key}", s.handleGetGraph)
	mux.HandleFunc("DELETE /v1/graphs/{key}", s.handleDeleteGraph)
	mux.HandleFunc("POST /v1/graphs/{key}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/sample", s.handleSample)
	mux.HandleFunc("POST /v1/audit", s.handleAudit)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	if s.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s.wrap(mux)
}

// streamRejection is the 429 body: the error plus the graph's current
// congestion gauges and live admission-queue stats, so a client can tell an
// overloaded graph from a stuck consumer and back off by the measured drain
// rate instead of a blind constant.
type streamRejection struct {
	Error             string  `json:"error"`
	Graph             string  `json:"graph"`
	ActiveStreams     int     `json:"active_streams"`
	QueueDepth        int     `json:"queue_depth"`
	Queued            int     `json:"queued"`
	QueueWaitP50MS    float64 `json:"queue_wait_p50_ms"`
	RetryAfterSeconds int     `json:"retry_after_seconds"`
}

// retryAfterSeconds turns the scheduler's live wait estimate into a
// Retry-After value: the estimated drain time rounded up, clamped to
// [1s, 60s] (1 when the queue has no history yet, 60 so a deep queue never
// tells clients to go away for minutes — stats may improve).
func retryAfterSeconds(qs spantree.QueueStats) int {
	est := qs.EstimatedWait
	if est <= 0 {
		return 1
	}
	secs := int((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// writeStreamRejected writes the ErrStreamLimit response: 429 with a
// Retry-After header computed from live admission-queue stats and the
// rejected graph's stream gauges in the body.
func (s *server) writeStreamRejected(w http.ResponseWriter, r *http.Request, key string, err error) {
	gm := s.eng.Metrics().StreamsByGraph[key]
	qs := s.eng.QueueStats(key)
	retry := retryAfterSeconds(qs)
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	s.writeJSON(w, r, http.StatusTooManyRequests, streamRejection{
		Error:             err.Error(),
		Graph:             key,
		ActiveStreams:     gm.ActiveStreams,
		QueueDepth:        gm.QueueDepth,
		Queued:            qs.Queued,
		QueueWaitP50MS:    float64(qs.WaitP50.Microseconds()) / 1000,
		RetryAfterSeconds: retry,
	})
}

// statusFor maps engine errors onto HTTP statuses: unknown-graph lookups
// are 404, unknown-sampler specs and everything else malformed are on the
// caller (400), deadline expiry is 504, a draining server is 503, and
// runtime sampler failures (including recovered panics) on a well-formed
// request are 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, spantree.ErrUnknownGraph):
		return http.StatusNotFound
	case errors.Is(err, spantree.ErrUnknownSampler):
		return http.StatusBadRequest
	case errors.Is(err, spantree.ErrStreamLimit):
		return http.StatusTooManyRequests
	case errors.Is(err, spantree.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, spantree.ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, spantree.ErrSampleFailed):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady serves readiness, distinct from liveness: 200 only when the
// replica is warm (prepared state hydrated, not draining), 503 with the
// state name otherwise. Routers and load balancers key routing on this;
// /healthz keys restarts.
func (s *server) handleReady(w http.ResponseWriter, r *http.Request) {
	st := s.readyState()
	code := http.StatusOK
	if st != readyWarm {
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, r, code, map[string]string{"status": st.String()})
}

// handleMetrics serves the Prometheus text exposition: server request
// counters and per-endpoint latency, engine batch/stream counters, stream
// pool and per-graph gauges, and the engine's latency histograms — rendered
// by internal/obs with zero external dependencies.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.writeMetrics(w, r, func(p *obs.PromWriter) {
		m := s.eng.Metrics()
		p.Header("spantree_engine_graphs", "Registered graphs.", "gauge")
		p.Value("spantree_engine_graphs", float64(m.Graphs))
		p.Header("spantree_engine_samples_total", "Completed tree draws.", "counter")
		p.Value("spantree_engine_samples_total", float64(m.Samples))
		p.Header("spantree_engine_batches_total", "Completed collect batches.", "counter")
		p.Value("spantree_engine_batches_total", float64(m.Batches))
		p.Header("spantree_engine_streams_total", "Streams opened.", "counter")
		p.Value("spantree_engine_streams_total", float64(m.Streams))
		p.Header("spantree_engine_aborted_total", "Streams ended early by cancellation or failure.", "counter")
		p.Value("spantree_engine_aborted_total", float64(m.Aborted))
		p.Header("spantree_engine_panics_total", "Sampler panics recovered at the per-sample boundary.", "counter")
		p.Value("spantree_engine_panics_total", float64(m.Panics))
		p.Header("spantree_traces_recorded_total", "Request traces recorded by the engine tracer.", "counter")
		p.Value("spantree_traces_recorded_total", float64(s.eng.Tracer().Recorded()))

		p.Header("spantree_stream_pool_workers", "Stream worker pool width.", "gauge")
		p.Value("spantree_stream_pool_workers", float64(m.StreamPool.Workers))
		p.Header("spantree_stream_pool_slots_in_use", "Pool slots currently leased to computing samples.", "gauge")
		p.Value("spantree_stream_pool_slots_in_use", float64(m.StreamPool.SlotsInUse))
		p.Header("spantree_stream_pool_active_streams", "Streams currently holding leases.", "gauge")
		p.Value("spantree_stream_pool_active_streams", float64(m.StreamPool.ActiveStreams))
		p.Header("spantree_stream_pool_waiting_acquires", "In-flight samples parked waiting for a slot.", "gauge")
		p.Value("spantree_stream_pool_waiting_acquires", float64(m.StreamPool.WaitingAcquires))
		p.Header("spantree_stream_pool_queued_streams", "Requests parked in admission queues across all graphs.", "gauge")
		p.Value("spantree_stream_pool_queued_streams", float64(m.StreamPool.QueuedStreams))
		if len(m.StreamsByGraph) > 0 {
			p.Header("spantree_graph_active_streams", "Open streams by graph.", "gauge")
			for key, gm := range m.StreamsByGraph {
				p.Value("spantree_graph_active_streams", float64(gm.ActiveStreams), obs.L{K: "graph", V: key})
			}
			p.Header("spantree_graph_queue_depth", "Computed results awaiting consumers, by graph.", "gauge")
			for key, gm := range m.StreamsByGraph {
				p.Value("spantree_graph_queue_depth", float64(gm.QueueDepth), obs.L{K: "graph", V: key})
			}
			p.Header("spantree_graph_queued_streams", "Requests waiting in the admission queue, by graph.", "gauge")
			for key, gm := range m.StreamsByGraph {
				p.Value("spantree_graph_queued_streams", float64(gm.QueuedStreams), obs.L{K: "graph", V: key})
			}
		}

		p.Header("spantree_sample_duration_seconds", "Per-tree compute latency by sampler.", "histogram")
		for name, snap := range m.Latency.Samplers {
			p.Hist("spantree_sample_duration_seconds", snap, obs.L{K: "sampler", V: name})
		}
		p.Header("spantree_scheduler_wait_seconds", "Stream sample wait for a worker-pool slot.", "histogram")
		p.Hist("spantree_scheduler_wait_seconds", m.Latency.SchedulerWait)
		p.Header("spantree_admission_wait_seconds", "Admitted streams' wait in the hold-and-wait admission queue.", "histogram")
		p.Hist("spantree_admission_wait_seconds", m.Latency.AdmissionWait)
		if len(m.Latency.DeadlineExceeded) > 0 {
			p.Header("spantree_deadline_exceeded_seconds", "How far past its deadline a request was at detection, by stage.", "histogram")
			for stage, snap := range m.Latency.DeadlineExceeded {
				p.Hist("spantree_deadline_exceeded_seconds", snap, obs.L{K: "stage", V: stage})
			}
		}

	})
}

// handleTraces serves the tracer's recent traces, newest first. ?limit=N
// bounds the count (default: the whole ring).
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("limit must be a non-negative integer, got %q", q))
			return
		}
		limit = n
	}
	s.writeJSON(w, r, http.StatusOK, map[string]any{"traces": s.eng.Tracer().Snapshot(limit)})
}

func (s *server) handleRegisterGraph(w http.ResponseWriter, r *http.Request) {
	var req client.RegisterRequest
	if !s.decode(w, r, &req) {
		return
	}
	requestInfo(r).graph = req.Key
	switch {
	case req.Family != "" && len(req.Edges) > 0:
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("specify family or edges, not both"))
		return
	case req.Family != "":
		if err := s.eng.RegisterFamily(req.Key, req.Family, req.N, req.Seed); err != nil {
			s.writeError(w, r, statusFor(err), err)
			return
		}
	case len(req.Edges) > 0:
		g, err := graph.FromEdgeList(req.N, req.Edges)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, err)
			return
		}
		if err := s.eng.Register(req.Key, g); err != nil {
			s.writeError(w, r, statusFor(err), err)
			return
		}
	default:
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("need a family name or an edge list"))
		return
	}
	info, err := s.eng.Info(req.Key)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, r, http.StatusCreated, info)
}

func (s *server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	keys := s.eng.Keys()
	infos := make([]spantree.GraphInfo, 0, len(keys))
	for _, k := range keys {
		if info, err := s.eng.Info(k); err == nil {
			infos = append(infos, info)
		}
	}
	s.writeJSON(w, r, http.StatusOK, map[string]any{"graphs": infos})
}

func (s *server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	requestInfo(r).graph = key
	info, err := s.eng.Info(key)
	if err != nil {
		s.writeError(w, r, statusFor(err), err)
		return
	}
	s.writeJSON(w, r, http.StatusOK, info)
}

func (s *server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	requestInfo(r).graph = key
	if !s.eng.Deregister(key) {
		s.writeError(w, r, http.StatusNotFound, fmt.Errorf("unknown graph %q", key))
		return
	}
	s.writeJSON(w, r, http.StatusOK, map[string]string{"deleted": key})
}

// fail answers a sampling request's engine error: ErrStreamLimit is the 429
// with queue stats, everything else its statusFor status.
func (s *server) fail(w http.ResponseWriter, r *http.Request, key string, err error) {
	if errors.Is(err, spantree.ErrStreamLimit) {
		s.writeStreamRejected(w, r, key, err)
		return
	}
	s.writeError(w, r, statusFor(err), err)
}

// engineRequest maps a stream body onto the engine's request, applying the
// default request deadline (the -request-timeout flag) when the body
// carries no deadline_ms.
func (s *server) engineRequest(req client.StreamRequest) spantree.StreamRequest {
	if req.DeadlineMS == 0 && s.reqTimeout > 0 {
		req.DeadlineMS = int(s.reqTimeout.Milliseconds())
	}
	return spantree.StreamRequest{
		K: req.K,
		Spec: spantree.SamplerSpec{
			Name:          spantree.Sampler(req.Sampler),
			SegmentLength: req.SegmentLength,
			MaxSteps:      req.MaxSteps,
			Root:          req.Root,
			Weight:        req.Weight,
			MaxWorkers:    req.MaxWorkers,
			DeadlineMS:    req.DeadlineMS,
		},
		SeedBase:   req.SeedBase,
		StartIndex: req.StartIndex,
	}
}

type sampleResponse struct {
	Graph     string                `json:"graph"`
	Sampler   string                `json:"sampler"`
	SeedBase  uint64                `json:"seed_base"`
	Summary   spantree.BatchSummary `json:"summary"`
	ElapsedMS float64               `json:"elapsed_ms"`
	Trees     []string              `json:"trees,omitempty"`
}

func makeSampleResponse(res *spantree.BatchResult, includeTrees bool) sampleResponse {
	resp := sampleResponse{
		Graph:     res.GraphKey,
		Sampler:   string(res.Sampler),
		SeedBase:  res.SeedBase,
		Summary:   res.Summary,
		ElapsedMS: float64(res.Elapsed.Microseconds()) / 1000,
	}
	if includeTrees {
		resp.Trees = make([]string, len(res.Trees))
		for i, t := range res.Trees {
			resp.Trees[i] = t.Encode()
		}
	}
	return resp
}

type auditResponse struct {
	sampleResponse
	Audit spantree.AuditResult `json:"audit"`
}

func (s *server) handleSample(w http.ResponseWriter, r *http.Request) { s.collect(w, r, false) }

func (s *server) handleAudit(w http.ResponseWriter, r *http.Request) { s.collect(w, r, true) }

// collect serves /v1/sample and, with audit, /v1/audit: a whole batch
// drawn as one stream and answered as one JSON body. The bare sampler name
// takes default knobs, and "workers" caps the batch's pool slots.
func (s *server) collect(w http.ResponseWriter, r *http.Request, audit bool) {
	var req client.SampleRequest
	if !s.decode(w, r, &req) {
		return
	}
	info := requestInfo(r)
	info.graph, info.sampler = req.Graph, req.Sampler
	sess, err := s.eng.Open(req.Graph)
	if err != nil {
		s.fail(w, r, req.Graph, err)
		return
	}
	sreq := s.engineRequest(client.StreamRequest{
		K: req.K, Sampler: req.Sampler, SeedBase: req.SeedBase,
		MaxWorkers: max(req.Workers, 0), DeadlineMS: req.DeadlineMS,
	})
	if !audit {
		res, err := sess.Collect(r.Context(), sreq)
		if err != nil {
			s.fail(w, r, req.Graph, err)
			return
		}
		s.writeJSON(w, r, http.StatusOK, makeSampleResponse(res, req.IncludeTrees))
		return
	}
	res, tv, err := sess.Audit(r.Context(), sreq)
	if err != nil {
		s.fail(w, r, req.Graph, err)
		return
	}
	s.writeJSON(w, r, http.StatusOK, auditResponse{sampleResponse: makeSampleResponse(res, req.IncludeTrees), Audit: tv})
}

// handleStream serves a batch as NDJSON, one line per sample as workers
// finish. The stream runs under the request context, so a client that
// disconnects mid-batch aborts its remaining work.
func (s *server) handleStream(w http.ResponseWriter, r *http.Request) {
	var req client.StreamRequest
	if !s.decode(w, r, &req) {
		return
	}
	key := r.PathValue("key")
	info := requestInfo(r)
	info.graph, info.sampler = key, req.Sampler
	sess, err := s.eng.Open(key)
	if err != nil {
		s.fail(w, r, key, err)
		return
	}
	st, err := sess.Stream(r.Context(), s.engineRequest(req))
	if err != nil {
		s.fail(w, r, key, err)
		return
	}
	// After a failed write the request context is already aborting the
	// stream; draining the channel lets its workers unblock.
	drain := func() {
		for range st.Results() {
		}
	}
	if err := writeNDJSON(w, st.Results(), engineLine, drain, st.Err); err != nil {
		s.writeError(w, r, statusFor(err), err)
	}
}

// engineLine is the NDJSON line of one engine result.
func engineLine(res spantree.SampleResult) client.Line {
	return client.Result{
		Index:      res.Index,
		Tree:       res.Tree.Encode(),
		Rounds:     res.Stats.Rounds,
		Supersteps: res.Stats.Supersteps,
		TotalWords: res.Stats.TotalWords,
		WalkSteps:  res.Stats.WalkSteps,
	}.Line()
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	latency := make(map[string]spantree.HistSnapshot)
	for ep, h := range s.latEndpoint {
		if snap := h.Snapshot(); snap.Count > 0 {
			latency[ep] = snap
		}
	}
	s.writeJSON(w, r, http.StatusOK, map[string]any{
		"engine":          s.eng.Metrics(),
		"requests":        s.requests.Load(),
		"request_errors":  s.errors.Load(),
		"request_latency": latency,
		"traces_recorded": s.eng.Tracer().Recorded(),
		"uptime_seconds":  time.Since(s.started).Seconds(),
	})
}
