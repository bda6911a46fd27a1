// Command spantreed serves the batch spanning-tree sampling engine over
// HTTP/JSON: register graphs (or generate named families), draw batches of
// trees with deterministic seed derivation, audit sampler uniformity against
// exact tree counts, and read engine metrics.
//
// Usage:
//
//	spantreed -addr :8080 -workers 8 -stream-workers 8 -max-streams-per-graph 4
//
// Concurrent streams share ONE engine-wide worker pool (-stream-workers
// slots, default -workers) arbitrated by a weighted scheduler: each stream
// receives slot grants proportional to its "weight" (default 1.0, settable
// per request), capped by its "max_workers". Slots cover computation only —
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
// run the simulated clique in charged mode on one sequential dense kernel.
// The simulator-fidelity field that older clients may still send is
// ignored: full and charged output were byte-identical, so nothing changes.
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
// Endpoints:
//
//	GET    /healthz              liveness probe (200 for the process lifetime)
//	GET    /readyz               readiness: 200 once warm, 503 while loading or draining
//	GET    /metrics              Prometheus text exposition
//	GET    /v1/traces            recent request traces as JSON (?limit=N)
//	GET    /v1/graphs            list registered graphs
//	POST   /v1/graphs            register: {"key","family","n","seed"} or {"key","n","edges":[[u,v,w?],...]}
//	GET    /v1/graphs/{key}        one graph's info
//	DELETE /v1/graphs/{key}        deregister
//	POST   /v1/graphs/{key}/stream NDJSON stream: one result line per sample as workers finish
//	POST   /v1/sample              {"graph","k","sampler","seed_base","workers","include_trees"}
//	POST   /v1/audit               same body; adds the TV audit against the exact tree count
//	GET    /v1/stats               engine + request metrics
//
// Persistence: -data-dir points the engine at a durable prepared-state
// directory (internal/blobstore). The graph registry persists across
// restarts via an on-disk manifest; each graph's expensive prepared state is
// snapshotted (write-behind, off the request path) after its first cold
// build and restored bit-exactly on the next boot, so a restarted server
// reaches first-sample readiness without re-running the phase-0 matrix
// squarings.
// Responses are byte-identical with or without -data-dir — restored state
// samples the same trees AND stats. Empty (the default) keeps the server
// fully in-memory.
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
// remaining streams (clients get a typed 503-mapped error) and flushes
// durable state.
package main

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	spantree "repro"
	"repro/internal/faultinject"
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
		workers       = flag.Int("workers", 0, "batch worker pool width (0: GOMAXPROCS)")
		streamWorkers = flag.Int("stream-workers", 0, "engine-wide stream worker pool width shared by all concurrent streams (0: same as -workers)")
		maxStreams    = flag.Int("max-streams-per-graph", 0, "max concurrent sampling jobs per graph (streams AND /v1/sample | /v1/audit batches); excess requests get 429 (0: unlimited)")
		traceEvery    = flag.Int("trace-every", 0, "trace 1 in every N unlabeled requests (0: default 1/64, negative: only X-Request-ID requests)")
		traceRing     = flag.Int("trace-ring", 0, "recent traces retained for /v1/traces (0: default 64)")
		pprofEnabled  = flag.Bool("pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/")
		dataDir       = flag.String("data-dir", "", "durable prepared-state directory: persists the graph registry and prepared-state snapshots across restarts (empty: in-memory only)")
		authToken     = flag.String("auth-token", "", "bearer token required on /v1/* endpoints (empty: $SPANTREED_AUTH_TOKEN; both empty: no auth)")
		admitQueue    = flag.Int("admission-queue", 0, "per-graph admission queue depth: requests at the -max-streams-per-graph cap wait (hold-and-wait) instead of 429ing until this many are queued (0: reject immediately at the cap)")
		reqTimeout    = flag.Duration("request-timeout", 0, "default per-request deadline covering admission wait, scheduling, and sampling; requests may set their own deadline_ms (0: no default)")
		tlsCert       = flag.String("tls-cert", "", "TLS certificate file; with -tls-key, serve HTTPS instead of HTTP")
		tlsKey        = flag.String("tls-key", "", "TLS private key file")
		drainTimeout  = flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown budget: SIGTERM waits this long for in-flight requests, then cancels the remaining streams before flushing durable state")
	)
	flag.Parse()

	if (*tlsCert == "") != (*tlsKey == "") {
		return errors.New("-tls-cert and -tls-key must be set together")
	}
	if spec := os.Getenv("SPANTREED_FAULT"); spec != "" {
		// Chaos-smoke hook: arm fault-injection points from the environment
		// (internal/faultinject syntax). Test harness only — injection is
		// zero-cost when the variable is unset.
		if err := faultinject.Configure(spec); err != nil {
			return err
		}
	}

	token := *authToken
	if token == "" {
		token = os.Getenv("SPANTREED_AUTH_TOKEN")
	}

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
		return runRouter(routerConfig{
			addr:          *addr,
			peers:         strings.Split(*peers, ","),
			replication:   *replication,
			probeInterval: *probeInterval,
			authToken:     token,
			peerToken:     outbound,
			tlsCert:       *tlsCert,
			tlsKey:        *tlsKey,
			drainTimeout:  *drainTimeout,
		})
	default:
		return fmt.Errorf("unknown -mode %q (want serve or router)", *mode)
	}

	eng, err := spantree.NewEngine(*workers,
		spantree.WithStreamWorkers(*streamWorkers),
		spantree.WithMaxStreamsPerGraph(*maxStreams),
		spantree.WithAdmissionQueue(*admitQueue),
		spantree.WithTraceSampling(*traceEvery),
		spantree.WithTraceRing(*traceRing),
		spantree.WithDataDir(*dataDir))
	if err != nil {
		return err
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	srv := newServer(eng)
	srv.log = logger
	srv.pprof = *pprofEnabled
	srv.reqTimeout = *reqTimeout
	srv.setAuthToken(token)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.routes(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Readiness: report loading until every registered graph's prepared
	// state is resolved (restored from -data-dir or built cold), so a router
	// probing /readyz never routes onto a still-hydrating replica. /healthz
	// is live the whole time.
	srv.setReady(readyLoading)
	go func() {
		if err := eng.Warmup(ctx); err != nil {
			logger.Warn("warmup", "err", err)
		}
		srv.setReady(readyWarm)
		logger.Info("ready", "graphs", len(eng.Keys()))
	}()

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "workers", eng.Workers(), "stream_workers", eng.StreamWorkers(), "pprof", *pprofEnabled, "data_dir", *dataDir, "auth", token != "", "tls", *tlsCert != "")
		var serveErr error
		if *tlsCert != "" {
			serveErr = httpSrv.ListenAndServeTLS(*tlsCert, *tlsKey)
		} else {
			serveErr = httpSrv.ListenAndServe()
		}
		if !errors.Is(serveErr, http.ErrServerClosed) {
			errc <- serveErr
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Flip readiness first: routers stop sending new work while the drain
	// window lets in-flight requests finish.
	srv.setReady(readyDraining)
	logger.Info("shutting down", "drain_timeout", *drainTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		// The drain budget ran out with streams still in flight: cancel them
		// through the deadline plumbing (clients get a typed 503-mapped
		// error line) and give the handlers a moment to finish writing.
		n := eng.AbortStreams(nil)
		logger.Warn("drain timeout, aborting in-flight streams", "aborted", n, "err", err)
		graceCtx, graceCancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer graceCancel()
		if err := httpSrv.Shutdown(graceCtx); err != nil {
			logger.Warn("closing server after abort", "err", err)
			_ = httpSrv.Close()
		}
	}
	// Graceful drain: wait out write-behind snapshot saves to the data dir
	// so the next boot starts warm (no-op without -data-dir).
	if err := eng.Close(); err != nil {
		logger.Warn("flushing durable state", "err", err)
	}
	return nil
}

// endpointLabels enumerates the route patterns the per-endpoint latency
// histograms are keyed by (bounded cardinality: paths with a key segment
// collapse onto their pattern, anything unrecognized onto "other").
var endpointLabels = []string{
	"/healthz",
	"/readyz",
	"/metrics",
	"/v1/traces",
	"/v1/graphs",
	"/v1/graphs/{key}",
	"/v1/graphs/{key}/stream",
	"/v1/sample",
	"/v1/audit",
	"/v1/stats",
	"other",
}

// endpointLabel maps a request path onto its route pattern by hand (the
// toolchain pin predates http.Request.Pattern).
func endpointLabel(r *http.Request) string {
	p := r.URL.Path
	switch p {
	case "/healthz", "/readyz", "/metrics", "/v1/traces", "/v1/graphs", "/v1/sample", "/v1/audit", "/v1/stats":
		return p
	}
	if rest, ok := strings.CutPrefix(p, "/v1/graphs/"); ok && rest != "" {
		if strings.HasSuffix(rest, "/stream") {
			return "/v1/graphs/{key}/stream"
		}
		if !strings.Contains(rest, "/") {
			return "/v1/graphs/{key}"
		}
	}
	return "other"
}

// readiness is the /readyz state machine: loading (hydrating prepared
// state) → warm (routable) → draining (shutting down). Liveness (/healthz)
// stays 200 throughout — the process is alive in every state; only routers
// and load balancers care about the difference.
type readiness int32

const (
	readyLoading readiness = iota
	readyWarm
	readyDraining
)

func (r readiness) String() string {
	switch r {
	case readyWarm:
		return "warm"
	case readyDraining:
		return "draining"
	default:
		return "loading"
	}
}

// server wires the engine to HTTP handlers and tracks request metrics.
type server struct {
	eng      *spantree.Engine
	log      *slog.Logger
	pprof    bool
	started  time.Time
	requests atomic.Int64
	errors   atomic.Int64
	// ready is the /readyz state. newServer starts warm (embedded and test
	// use); the daemon flips it to loading before listening and back to warm
	// once Engine.Warmup finishes, so a router never routes to a replica
	// still hydrating prepared state.
	ready atomic.Int32
	// reqTimeout, when positive, is the default per-request deadline applied
	// to sampling requests that don't carry their own deadline_ms.
	reqTimeout time.Duration
	// authHash, when non-nil, is the SHA-256 of the bearer token every /v1/*
	// request must present (hashed so comparisons are constant-time over
	// fixed-length digests; the raw token is never retained).
	authHash []byte
	// latEndpoint holds one request-latency histogram per route pattern,
	// fully populated at construction so reads are lock-free.
	latEndpoint map[string]*obs.Histogram
}

// setAuthToken enables bearer-token auth on the /v1/* API ("" disables).
// Must be called before the server handles traffic.
func (s *server) setAuthToken(token string) {
	if token == "" {
		s.authHash = nil
		return
	}
	sum := sha256.Sum256([]byte(token))
	s.authHash = sum[:]
}

// authorize reports whether r may reach the API: true when auth is disabled
// or the request bears the configured token. Only /v1/* is gated —
// /healthz, /metrics, and /debug/pprof stay open for probes and scrapers,
// which is the conventional split for infrastructure endpoints.
func (s *server) authorize(r *http.Request) bool {
	if s.authHash == nil || !strings.HasPrefix(r.URL.Path, "/v1/") {
		return true
	}
	token, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	if !ok {
		return false
	}
	sum := sha256.Sum256([]byte(token))
	return subtle.ConstantTimeCompare(sum[:], s.authHash) == 1
}

// auth is the bearer-token gate in front of the API mux. It sits inside
// instrument, so rejected requests still get request IDs, log lines, and a
// place in the error counters and latency histograms.
func (s *server) auth(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.authorize(r) {
			w.Header().Set("WWW-Authenticate", `Bearer realm="spantreed"`)
			s.writeError(w, r, http.StatusUnauthorized, errors.New("missing or invalid bearer token"))
			return
		}
		next.ServeHTTP(w, r)
	})
}

func newServer(eng *spantree.Engine) *server {
	s := &server{
		eng:         eng,
		log:         slog.New(slog.NewTextHandler(io.Discard, nil)),
		started:     time.Now(),
		latEndpoint: make(map[string]*obs.Histogram, len(endpointLabels)),
	}
	s.ready.Store(int32(readyWarm))
	for _, ep := range endpointLabels {
		s.latEndpoint[ep] = obs.NewHistogram()
	}
	return s
}

// setReady moves the /readyz state machine.
func (s *server) setReady(r readiness) { s.ready.Store(int32(r)) }

func (s *server) readyState() readiness { return readiness(s.ready.Load()) }

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
	return s.instrument(s.auth(mux))
}

// reqInfo is the per-request context record: the request ID plus the graph
// key and sampler name the handler resolves, folded into the completion log
// line.
type reqInfo struct {
	id      string
	graph   string
	sampler string
}

type reqInfoKey struct{}

// requestInfo returns the request's info record (always present under the
// instrument middleware; a zero record outside it, so handlers never branch).
func requestInfo(r *http.Request) *reqInfo {
	if info, ok := r.Context().Value(reqInfoKey{}).(*reqInfo); ok {
		return info
	}
	return &reqInfo{}
}

// instrument is the observability middleware: request/error counters, the
// per-endpoint latency histogram, request-ID assignment (propagated from
// X-Request-ID, generated otherwise), end-to-end tracing — forced for
// requests carrying an explicit ID, so a client can always get the trace it
// asks for — and the structured completion log line.
func (s *server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		start := time.Now()
		endpoint := endpointLabel(r)
		info := &reqInfo{id: r.Header.Get("X-Request-ID")}
		var tr *spantree.Trace
		if info.id != "" {
			tr = s.eng.Tracer().StartForced(r.Method+" "+endpoint, info.id)
		} else {
			info.id = s.eng.Tracer().NewID()
		}
		w.Header().Set("X-Request-ID", info.id)
		ctx := context.WithValue(r.Context(), reqInfoKey{}, info)
		if tr != nil {
			ctx = spantree.TraceContext(ctx, tr)
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r.WithContext(ctx))
		if tr != nil {
			tr.Finish()
		}
		dur := time.Since(start)
		s.latEndpoint[endpoint].Observe(dur)
		if rec.status >= 400 {
			s.errors.Add(1)
		}
		attrs := []any{
			"id", info.id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"duration_ms", float64(dur.Microseconds()) / 1000,
		}
		if info.graph != "" {
			attrs = append(attrs, "graph", info.graph)
		}
		if info.sampler != "" {
			attrs = append(attrs, "sampler", info.sampler)
		}
		if rec.status >= 500 {
			s.log.Error("request", attrs...)
		} else if rec.status >= 400 {
			s.log.Warn("request", attrs...)
		} else {
			s.log.Info("request", attrs...)
		}
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards http.Flusher so streaming handlers behind the middleware
// can push each NDJSON line to the client as it completes; without this the
// embedded-interface wrapper hides the underlying Flusher and lines leave
// in transport-buffer-sized bursts instead.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *server) writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Error("encoding response", "id", requestInfo(r).id, "path", r.URL.Path, "err", err)
	}
}

type errorBody struct {
	Error string `json:"error"`
}

func (s *server) writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	s.writeJSON(w, r, status, errorBody{Error: err.Error()})
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
// pool and per-graph gauges, blobstore state, and the
// engine's latency histograms — rendered by internal/obs with zero external
// dependencies.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.eng.Metrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)

	p.Header("spantreed_requests_total", "HTTP requests received.", "counter")
	p.Value("spantreed_requests_total", float64(s.requests.Load()))
	p.Header("spantreed_request_errors_total", "HTTP requests answered with status >= 400.", "counter")
	p.Value("spantreed_request_errors_total", float64(s.errors.Load()))
	p.Header("spantreed_uptime_seconds", "Seconds since the server started.", "gauge")
	p.Value("spantreed_uptime_seconds", time.Since(s.started).Seconds())
	p.Header("spantreed_request_duration_seconds", "Request latency by route pattern.", "histogram")
	for _, ep := range endpointLabels {
		p.Hist("spantreed_request_duration_seconds", s.latEndpoint[ep].Snapshot(), obs.L{K: "endpoint", V: ep})
	}

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

	p.Header("spantree_blobstore_hits_total", "Prepared-state snapshot loads served from the durable store.", "counter")
	p.Value("spantree_blobstore_hits_total", float64(m.Blobstore.Hits))
	p.Header("spantree_blobstore_misses_total", "Snapshot loads that fell through to a cold prepare.", "counter")
	p.Value("spantree_blobstore_misses_total", float64(m.Blobstore.Misses))
	p.Header("spantree_blobstore_puts_total", "Snapshot blobs written.", "counter")
	p.Value("spantree_blobstore_puts_total", float64(m.Blobstore.Puts))
	p.Header("spantree_blobstore_corrupt_discards_total", "Blobs discarded after failing verification.", "counter")
	p.Value("spantree_blobstore_corrupt_discards_total", float64(m.Blobstore.CorruptDiscards))
	p.Header("spantree_blobstore_read_bytes_total", "Blob payload bytes read.", "counter")
	p.Value("spantree_blobstore_read_bytes_total", float64(m.Blobstore.BytesRead))
	p.Header("spantree_blobstore_written_bytes_total", "Blob payload bytes written.", "counter")
	p.Value("spantree_blobstore_written_bytes_total", float64(m.Blobstore.BytesWritten))
	p.Header("spantree_blobstore_resident_blobs", "Blobs resident on disk.", "gauge")
	p.Value("spantree_blobstore_resident_blobs", float64(m.Blobstore.ResidentBlobs))
	p.Header("spantree_blobstore_resident_bytes", "Bytes resident on disk.", "gauge")
	p.Value("spantree_blobstore_resident_bytes", float64(m.Blobstore.ResidentBytes))
	p.Header("spantree_blobstore_load_seconds", "Blob load latency (open, read, verify).", "histogram")
	p.Hist("spantree_blobstore_load_seconds", m.Blobstore.Load)

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

	if err := p.Err(); err != nil {
		s.log.Error("writing metrics", "id", requestInfo(r).id, "err", err)
	}
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

// registerRequest admits a graph either as a named family or as an explicit
// edge list (entries [u, v] or [u, v, weight]).
type registerRequest struct {
	Key    string      `json:"key"`
	Family string      `json:"family,omitempty"`
	N      int         `json:"n"`
	Seed   uint64      `json:"seed,omitempty"`
	Edges  [][]float64 `json:"edges,omitempty"`
}

func (s *server) handleRegisterGraph(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
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
		g, err := graphFromEdges(req.N, req.Edges)
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

func graphFromEdges(n int, edges [][]float64) (*spantree.Graph, error) {
	g, err := spantree.NewGraph(n)
	if err != nil {
		return nil, err
	}
	for i, e := range edges {
		if len(e) != 2 && len(e) != 3 {
			return nil, fmt.Errorf("edge %d: want [u, v] or [u, v, weight], got %v", i, e)
		}
		u, v := int(e[0]), int(e[1])
		if float64(u) != e[0] || float64(v) != e[1] {
			return nil, fmt.Errorf("edge %d: non-integer endpoints %v", i, e)
		}
		w := 1.0
		if len(e) == 3 {
			w = e[2]
		}
		if err := g.AddEdge(u, v, w); err != nil {
			return nil, fmt.Errorf("edge %d: %w", i, err)
		}
	}
	return g, nil
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

// sampleRequest is the body of /v1/sample and /v1/audit: the collect-all
// endpoints keep their bare sampler-name wire format, converted to a
// default-knob SamplerSpec internally (the stream endpoint carries the full
// typed spec).
type sampleRequest struct {
	Graph        string `json:"graph"`
	K            int    `json:"k"`
	Sampler      string `json:"sampler,omitempty"`
	SeedBase     uint64 `json:"seed_base"`
	Workers      int    `json:"workers,omitempty"`
	DeadlineMS   int    `json:"deadline_ms,omitempty"`
	IncludeTrees bool   `json:"include_trees,omitempty"`
}

func (r sampleRequest) stream() spantree.StreamRequest {
	spec := spantree.SpecFor(spantree.Sampler(r.Sampler))
	spec.DeadlineMS = r.DeadlineMS
	return spantree.StreamRequest{
		K:        r.K,
		Spec:     spec,
		SeedBase: r.SeedBase,
		Workers:  r.Workers,
	}
}

// withDeadline applies the server's default request deadline (the
// -request-timeout flag) to requests that don't carry their own deadline_ms.
func (s *server) withDeadline(req spantree.StreamRequest) spantree.StreamRequest {
	if req.Spec.DeadlineMS == 0 && s.reqTimeout > 0 {
		req.Spec.DeadlineMS = int(s.reqTimeout.Milliseconds())
	}
	return req
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

func (s *server) handleSample(w http.ResponseWriter, r *http.Request) {
	var req sampleRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	info := requestInfo(r)
	info.graph, info.sampler = req.Graph, req.Sampler
	sess, err := s.eng.Open(req.Graph)
	if err != nil {
		s.writeError(w, r, statusFor(err), err)
		return
	}
	res, err := sess.Collect(r.Context(), s.withDeadline(req.stream()))
	if err != nil {
		if errors.Is(err, spantree.ErrStreamLimit) {
			s.writeStreamRejected(w, r, req.Graph, err)
			return
		}
		s.writeError(w, r, statusFor(err), err)
		return
	}
	s.writeJSON(w, r, http.StatusOK, makeSampleResponse(res, req.IncludeTrees))
}

type auditResponse struct {
	sampleResponse
	Audit spantree.AuditResult `json:"audit"`
}

func (s *server) handleAudit(w http.ResponseWriter, r *http.Request) {
	var req sampleRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	info := requestInfo(r)
	info.graph, info.sampler = req.Graph, req.Sampler
	sess, err := s.eng.Open(req.Graph)
	if err != nil {
		s.writeError(w, r, statusFor(err), err)
		return
	}
	res, audit, err := sess.Audit(r.Context(), s.withDeadline(req.stream()))
	if err != nil {
		if errors.Is(err, spantree.ErrStreamLimit) {
			s.writeStreamRejected(w, r, req.Graph, err)
			return
		}
		s.writeError(w, r, statusFor(err), err)
		return
	}
	s.writeJSON(w, r, http.StatusOK, auditResponse{
		sampleResponse: makeSampleResponse(res, req.IncludeTrees),
		Audit:          audit,
	})
}

// streamRequest is the body of /v1/graphs/{key}/stream: a typed sampler
// spec (name + per-sampler knobs) instead of /v1/sample's bare string.
type streamRequest struct {
	K             int     `json:"k"`
	Sampler       string  `json:"sampler,omitempty"`
	SegmentLength int     `json:"segment_length,omitempty"`
	MaxSteps      int     `json:"max_steps,omitempty"`
	Root          int     `json:"root,omitempty"`
	Weight        float64 `json:"weight,omitempty"`
	MaxWorkers    int     `json:"max_workers,omitempty"`
	DeadlineMS    int     `json:"deadline_ms,omitempty"`
	SeedBase      uint64  `json:"seed_base"`
	StartIndex    int     `json:"start_index,omitempty"`
	Workers       int     `json:"workers,omitempty"` // legacy alias for max_workers
}

func (r streamRequest) stream() spantree.StreamRequest {
	return spantree.StreamRequest{
		K: r.K,
		Spec: spantree.SamplerSpec{
			Name:          spantree.Sampler(r.Sampler),
			SegmentLength: r.SegmentLength,
			MaxSteps:      r.MaxSteps,
			Root:          r.Root,
			Weight:        r.Weight,
			MaxWorkers:    r.MaxWorkers,
			DeadlineMS:    r.DeadlineMS,
		},
		SeedBase:   r.SeedBase,
		StartIndex: r.StartIndex,
		Workers:    r.Workers,
	}
}

// streamLine is one NDJSON line of a stream response: a per-sample result
// (lines arrive in completion order; index is the determinism key), or the
// terminal line carrying either done+summary fields or an error.
type streamLine struct {
	Index      *int   `json:"index,omitempty"`
	Tree       string `json:"tree,omitempty"`
	Rounds     int    `json:"rounds,omitempty"`
	Supersteps int    `json:"supersteps,omitempty"`
	TotalWords int64  `json:"total_words,omitempty"`
	WalkSteps  int    `json:"walk_steps,omitempty"`

	Done      bool    `json:"done,omitempty"`
	Samples   int     `json:"samples,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// handleStream serves a batch as NDJSON, one line per sample as workers
// finish. The stream runs under the request context, so a client that
// disconnects mid-batch aborts its remaining work. The 200 status is not
// committed until the first sample arrives — a stream that fails before
// producing anything still gets a real error status; failures after the
// first line arrive as a terminal {"error": ...} line instead.
func (s *server) handleStream(w http.ResponseWriter, r *http.Request) {
	var req streamRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	key := r.PathValue("key")
	info := requestInfo(r)
	info.graph, info.sampler = key, req.Sampler
	sess, err := s.eng.Open(key)
	if err != nil {
		s.writeError(w, r, statusFor(err), err)
		return
	}
	st, err := sess.Stream(r.Context(), s.withDeadline(req.stream()))
	if err != nil {
		if errors.Is(err, spantree.ErrStreamLimit) {
			s.writeStreamRejected(w, r, key, err)
			return
		}
		s.writeError(w, r, statusFor(err), err)
		return
	}

	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	start := time.Now()
	delivered := 0
	headerWritten := false
	for res := range st.Results() {
		if !headerWritten {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			headerWritten = true
		}
		i := res.Index
		line := streamLine{
			Index:      &i,
			Tree:       res.Tree.Encode(),
			Rounds:     res.Stats.Rounds,
			Supersteps: res.Stats.Supersteps,
			TotalWords: res.Stats.TotalWords,
			WalkSteps:  res.Stats.WalkSteps,
		}
		if err := enc.Encode(line); err != nil {
			// The client is gone; r.Context() cancellation is already
			// aborting the stream. Drain the channel so workers unblock.
			for range st.Results() {
			}
			break
		}
		delivered++
		if flusher != nil {
			flusher.Flush()
		}
	}
	streamErr := st.Err()
	if !headerWritten {
		// Nothing was delivered: the status can still tell the truth.
		if streamErr != nil {
			s.writeError(w, r, statusFor(streamErr), streamErr)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
	}
	final := streamLine{Samples: delivered, ElapsedMS: float64(time.Since(start).Microseconds()) / 1000}
	if streamErr != nil {
		final.Error = streamErr.Error()
	} else {
		final.Done = true
	}
	if err := enc.Encode(final); err == nil && flusher != nil {
		flusher.Flush()
	}
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
