package main

// The HTTP front both modes share. A replica (server) and a router each embed
// one front: request counters and per-endpoint latency, the bearer-token
// gate, request IDs and tracing, the JSON and NDJSON writers, the request
// metric families, and the listen/drain loop. Only the handlers differ.

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/obs"
)

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

// front is the HTTP layer a replica and a router have in common.
type front struct {
	log *slog.Logger
	// tracer assigns request IDs and records traces; nil (the router) means
	// no X-Request-ID header and no traces.
	tracer   *obs.Tracer
	started  time.Time
	requests atomic.Int64
	errors   atomic.Int64
	// ready is the /readyz state. It starts warm (embedded and test use);
	// the daemon flips a replica to loading until Engine.Warmup finishes,
	// and serve flips either mode to draining on shutdown.
	ready atomic.Int32
	// authHash, when non-nil, is the SHA-256 of the bearer token every /v1/*
	// request must present (hashed so comparisons are constant-time over
	// fixed-length digests; the raw token is never retained).
	authHash []byte
	// latEndpoint holds one request-latency histogram per route pattern,
	// fully populated at construction so reads are lock-free.
	latEndpoint map[string]*obs.Histogram
}

func newFront(tracer *obs.Tracer) *front {
	f := &front{
		log:         slog.New(slog.NewTextHandler(io.Discard, nil)),
		tracer:      tracer,
		started:     time.Now(),
		latEndpoint: make(map[string]*obs.Histogram, len(endpointLabels)),
	}
	f.ready.Store(int32(readyWarm))
	for _, ep := range endpointLabels {
		f.latEndpoint[ep] = obs.NewHistogram()
	}
	return f
}

// setReady moves the /readyz state machine.
func (f *front) setReady(r readiness) { f.ready.Store(int32(r)) }

func (f *front) readyState() readiness { return readiness(f.ready.Load()) }

// setAuthToken enables bearer-token auth on the /v1/* API ("" disables).
// Must be called before the front handles traffic.
func (f *front) setAuthToken(token string) {
	if token == "" {
		f.authHash = nil
		return
	}
	sum := sha256.Sum256([]byte(token))
	f.authHash = sum[:]
}

// authorize reports whether r may reach the API: true when auth is disabled
// or the request bears the configured token. Only /v1/* is gated —
// /healthz, /metrics, and /debug/pprof stay open for probes and scrapers,
// which is the conventional split for infrastructure endpoints.
func (f *front) authorize(r *http.Request) bool {
	if f.authHash == nil || !strings.HasPrefix(r.URL.Path, "/v1/") {
		return true
	}
	token, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	if !ok {
		return false
	}
	sum := sha256.Sum256([]byte(token))
	return subtle.ConstantTimeCompare(sum[:], f.authHash) == 1
}

// wrap puts the middleware stack around a mode's mux: instrument outside
// auth, so rejected requests still get request IDs, log lines, and a place
// in the error counters and latency histograms.
func (f *front) wrap(mux http.Handler) http.Handler {
	return f.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !f.authorize(r) {
			w.Header().Set("WWW-Authenticate", `Bearer realm="spantreed"`)
			f.writeError(w, r, http.StatusUnauthorized, errors.New("missing or invalid bearer token"))
			return
		}
		mux.ServeHTTP(w, r)
	}))
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
func (f *front) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.requests.Add(1)
		start := time.Now()
		endpoint := endpointLabel(r)
		info := &reqInfo{id: r.Header.Get("X-Request-ID")}
		var tr *obs.Trace
		if info.id != "" {
			tr = f.tracer.StartForced(r.Method+" "+endpoint, info.id)
		} else {
			info.id = f.tracer.NewID()
		}
		if f.tracer != nil {
			w.Header().Set("X-Request-ID", info.id)
		}
		ctx := context.WithValue(r.Context(), reqInfoKey{}, info)
		if tr != nil {
			ctx = obs.NewContext(ctx, tr)
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r.WithContext(ctx))
		if tr != nil {
			tr.Finish()
		}
		dur := time.Since(start)
		f.latEndpoint[endpoint].Observe(dur)
		if rec.status >= 400 {
			f.errors.Add(1)
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
			f.log.Error("request", attrs...)
		} else if rec.status >= 400 {
			f.log.Warn("request", attrs...)
		} else {
			f.log.Info("request", attrs...)
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

func (f *front) writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		f.log.Error("encoding response", "id", requestInfo(r).id, "path", r.URL.Path, "err", err)
	}
}

type errorBody struct {
	Error string `json:"error"`
}

func (f *front) writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	f.writeJSON(w, r, status, errorBody{Error: err.Error()})
}

// decode reads the JSON request body into v, answering 400 when it cannot.
func (f *front) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		f.writeError(w, r, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// writeMetrics serves the Prometheus text exposition: the request families
// both modes export, then the mode's own families.
func (f *front) writeMetrics(w http.ResponseWriter, r *http.Request, mode func(p *obs.PromWriter)) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)
	p.Header("spantreed_requests_total", "HTTP requests received.", "counter")
	p.Value("spantreed_requests_total", float64(f.requests.Load()))
	p.Header("spantreed_request_errors_total", "HTTP requests answered with status >= 400.", "counter")
	p.Value("spantreed_request_errors_total", float64(f.errors.Load()))
	p.Header("spantreed_uptime_seconds", "Seconds since the server started.", "gauge")
	p.Value("spantreed_uptime_seconds", time.Since(f.started).Seconds())
	p.Header("spantreed_request_duration_seconds", "Request latency by route pattern.", "histogram")
	for _, ep := range endpointLabels {
		p.Hist("spantreed_request_duration_seconds", f.latEndpoint[ep].Snapshot(), obs.L{K: "endpoint", V: ep})
	}
	mode(p)
	if err := p.Err(); err != nil {
		f.log.Error("writing metrics", "id", requestInfo(r).id, "err", err)
	}
}

// writeNDJSON writes a result stream as NDJSON, one flushed line per result
// in arrival order, then the terminal done/error line. The 200 is committed
// with the first line, so a stream that ends before delivering anything
// returns its error unwritten and the caller can still answer with a real
// status; later failures arrive as a terminal {"error": ...} line. A failed
// write means the client is gone: stop releases the upstream and nothing
// more is written.
func writeNDJSON[T any](w http.ResponseWriter, results <-chan T, line func(T) client.Line, stop func(), streamErr func() error) error {
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	start := time.Now()
	delivered := 0
	for res := range results {
		if delivered == 0 {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
		if err := enc.Encode(line(res)); err != nil {
			stop()
			return nil
		}
		delivered++
		if flusher != nil {
			flusher.Flush()
		}
	}
	err := streamErr()
	if delivered == 0 {
		if err != nil {
			return err
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
	}
	final := client.Line{Samples: delivered, ElapsedMS: float64(time.Since(start).Microseconds()) / 1000}
	if err != nil {
		final.Error = err.Error()
	} else {
		final.Done = true
	}
	if enc.Encode(final) == nil && flusher != nil {
		flusher.Flush()
	}
	return nil
}

// listenConfig is the listener slice of the flag surface, shared by both
// modes.
type listenConfig struct {
	addr, tlsCert, tlsKey string
	drainTimeout          time.Duration
}

// drainHooks are a replica's steps around the shared drain; a router leaves
// them nil.
type drainHooks struct {
	// abort cancels in-flight streams once the drain budget is spent and
	// reports how many it cancelled.
	abort func() int
	// close runs after the listener is down (flushing durable state).
	close func() error
}

// serve runs h on lc.addr — HTTPS when lc names a certificate pair — until
// ctx ends (SIGINT/SIGTERM), then drains: readiness flips to draining first,
// so routers stop sending new work while in-flight requests get
// lc.drainTimeout to finish. Past that budget a replica aborts its streams
// (clients get a typed 503-mapped error line) and gets a short grace period
// to write them; whatever is still open is then closed.
func (f *front) serve(ctx context.Context, lc listenConfig, h http.Handler, hooks drainHooks) error {
	srv := &http.Server{Addr: lc.addr, Handler: h, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() {
		var err error
		if lc.tlsCert != "" {
			err = srv.ListenAndServeTLS(lc.tlsCert, lc.tlsKey)
		} else {
			err = srv.ListenAndServe()
		}
		if !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	f.setReady(readyDraining)
	f.log.Info("shutting down", "drain_timeout", lc.drainTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), lc.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		if hooks.abort != nil {
			f.log.Warn("drain timeout, aborting in-flight streams", "aborted", hooks.abort(), "err", err)
			graceCtx, graceCancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer graceCancel()
			err = srv.Shutdown(graceCtx)
		}
		if err != nil {
			f.log.Warn("drain timeout, closing", "err", err)
			_ = srv.Close()
		}
	}
	if hooks.close != nil {
		if err := hooks.close(); err != nil {
			f.log.Warn("flushing durable state", "err", err)
		}
	}
	return nil
}
