package main

// Router mode: `spantreed -mode router -peers <ep,ep,...>` turns the binary
// into a stateless cluster coordinator. It serves the same /v1/* surface as
// a replica but owns no engine — every request is routed onto the replica
// set that owns its graph key (consistent hashing, shared with the failover
// client, so both pick identical owners) and failed over to the next replica
// on connect errors, timeouts, and 5xx. Graph registrations are recorded in
// an in-memory table and replayed onto replicas as they join or recover, so
// a replica that was down during POST /v1/graphs catches up the moment its
// /readyz probe goes green. Streams proxied through the router inherit the
// failover client's splice: if the serving replica dies mid-stream, the
// remaining window resumes on the next replica and the router's client sees
// one uninterrupted, exactly-once NDJSON stream.

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// routerConfig is the -mode router slice of the flag surface.
type routerConfig struct {
	peers         []string
	replication   int
	probeInterval time.Duration
	authToken     string // required from OUR callers
	peerToken     string // sent to replicas
}

// router is the coordinator: a FailoverClient doing the actual routing,
// plus the registration replay table, behind the shared front (with no
// tracer: the router assigns no request IDs).
type router struct {
	*front
	fc *client.FailoverClient

	// regMu guards the registration replay table: every successful POST
	// /v1/graphs is recorded so recovered replicas can be caught up.
	regMu         sync.Mutex
	registrations map[string]client.RegisterRequest
	replayed      atomic.Int64
}

func newRouter(cfg routerConfig, logger *slog.Logger) (*router, error) {
	eps := make([]string, 0, len(cfg.peers))
	for _, p := range cfg.peers {
		if p = strings.TrimSpace(p); p != "" {
			eps = append(eps, p)
		}
	}
	if len(eps) == 0 {
		return nil, errors.New("router mode needs -peers")
	}
	rt := &router{front: newFront(nil), registrations: map[string]client.RegisterRequest{}}
	rt.log = logger
	rt.setAuthToken(cfg.authToken)
	fc, err := client.NewFailover(eps, client.FailoverOptions{
		Replication:   cfg.replication,
		AuthToken:     cfg.peerToken,
		ProbeInterval: cfg.probeInterval,
		OnRecover:     rt.replayOnto,
	})
	if err != nil {
		return nil, err
	}
	rt.fc = fc
	return rt, nil
}

// replayOnto re-registers every recorded graph on a recovered (or newly
// healthy) replica that belongs to the graph's replica set. Duplicate
// registrations are the common case and are dismissed by the replica.
func (rt *router) replayOnto(ep string) {
	rt.regMu.Lock()
	regs := make([]client.RegisterRequest, 0, len(rt.registrations))
	for _, reg := range rt.registrations {
		regs = append(regs, reg)
	}
	rt.regMu.Unlock()
	peer := rt.fc.Peer(ep)
	if peer == nil {
		return
	}
	for _, reg := range regs {
		if !slices.Contains(rt.fc.Replicas(reg.Key), ep) {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_, err := peer.Register(ctx, reg)
		cancel()
		var apiErr *client.APIError
		if err != nil && !(errors.As(err, &apiErr) && strings.Contains(apiErr.Message, "already registered")) {
			rt.log.Warn("registration replay failed", "peer", ep, "graph", reg.Key, "err", err)
			continue
		}
		rt.replayed.Add(1)
		rt.log.Info("registration replayed", "peer", ep, "graph", reg.Key)
	}
}

// record adds a registration to the replay table.
func (rt *router) record(reg client.RegisterRequest) {
	rt.regMu.Lock()
	rt.registrations[reg.Key] = reg
	rt.regMu.Unlock()
}

func (rt *router) forget(key string) {
	rt.regMu.Lock()
	delete(rt.registrations, key)
	rt.regMu.Unlock()
}

// replayKey replays one key's registration onto its whole replica set — the
// 404-recovery path: a replica that restarted without durable state answers
// 404 for a graph the cluster knows; re-registering and retrying heals it
// without surfacing the blip to the caller.
func (rt *router) replayKey(ctx context.Context, key string) bool {
	rt.regMu.Lock()
	reg, known := rt.registrations[key]
	rt.regMu.Unlock()
	if !known {
		return false
	}
	_, err := rt.fc.Register(ctx, reg)
	return err == nil
}

func (rt *router) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		rt.writeJSON(w, r, http.StatusOK, map[string]string{"status": "ok", "mode": "router"})
	})
	mux.HandleFunc("GET /readyz", rt.handleReady)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /v1/graphs", rt.handleListGraphs)
	mux.HandleFunc("POST /v1/graphs", rt.handleRegister)
	mux.HandleFunc("GET /v1/graphs/{key}", rt.handleInfo)
	mux.HandleFunc("DELETE /v1/graphs/{key}", rt.handleDeregister)
	mux.HandleFunc("POST /v1/graphs/{key}/stream", rt.handleStream)
	mux.HandleFunc("POST /v1/sample", rt.handleSample)
	mux.HandleFunc("POST /v1/audit", rt.handleAudit)
	mux.HandleFunc("GET /v1/traces", rt.handleTraces)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.HandleFunc("GET /v1/ring", rt.handleRing)
	return rt.wrap(mux)
}

// writeClientError maps a proxy-leg error onto our response: APIErrors pass
// the replica's status (and Retry-After) through verbatim; transport
// failures that survived every replica and retry become 502.
func (rt *router) writeClientError(w http.ResponseWriter, r *http.Request, err error) {
	var apiErr *client.APIError
	switch {
	case errors.As(err, &apiErr):
		if apiErr.RetryAfter > 0 {
			w.Header().Set("Retry-After", fmt.Sprint(int(apiErr.RetryAfter/time.Second)))
		}
		rt.writeError(w, r, apiErr.Status, errors.New(apiErr.Message))
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		rt.writeError(w, r, http.StatusGatewayTimeout, err)
	default:
		rt.writeError(w, r, http.StatusBadGateway, err)
	}
}

// writeRaw answers 200 with a replica's JSON body, unre-encoded.
func writeRaw(w http.ResponseWriter, raw []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(raw)
}

func (rt *router) handleReady(w http.ResponseWriter, r *http.Request) {
	if rt.readyState() == readyDraining {
		rt.writeJSON(w, r, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	// The router is ready when at least one peer is routable; with every
	// breaker open there is nowhere to send work.
	for _, ep := range rt.fc.Endpoints() {
		if rt.fc.Healthy(ep) {
			rt.writeJSON(w, r, http.StatusOK, map[string]string{"status": "warm"})
			return
		}
	}
	rt.writeJSON(w, r, http.StatusServiceUnavailable, map[string]string{"status": "no healthy peers"})
}

func (rt *router) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req client.RegisterRequest
	if !rt.decode(w, r, &req) {
		return
	}
	info, err := rt.fc.Register(r.Context(), req)
	if err != nil {
		rt.writeClientError(w, r, err)
		return
	}
	rt.record(req)
	rt.writeJSON(w, r, http.StatusCreated, info)
}

func (rt *router) handleDeregister(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	rt.forget(key)
	if err := rt.fc.Deregister(r.Context(), key); err != nil {
		rt.writeClientError(w, r, err)
		return
	}
	rt.writeJSON(w, r, http.StatusOK, map[string]string{"deleted": key})
}

func (rt *router) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	gs, err := rt.fc.Graphs(r.Context())
	if err != nil {
		rt.writeClientError(w, r, err)
		return
	}
	if gs == nil {
		gs = []client.GraphInfo{}
	}
	rt.writeJSON(w, r, http.StatusOK, map[string]any{"graphs": gs})
}

func (rt *router) handleInfo(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	info, err := rt.fc.Info(r.Context(), key)
	if isUnknownGraph(err) && rt.replayKey(r.Context(), key) {
		info, err = rt.fc.Info(r.Context(), key)
	}
	if err != nil {
		rt.writeClientError(w, r, err)
		return
	}
	rt.writeJSON(w, r, http.StatusOK, info)
}

func isUnknownGraph(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound
}

func (rt *router) handleSample(w http.ResponseWriter, r *http.Request) {
	if err := faultinject.Hook(faultinject.PointRouterProxy); err != nil {
		rt.writeClientError(w, r, err)
		return
	}
	var req client.SampleRequest
	if !rt.decode(w, r, &req) {
		return
	}
	res, err := rt.fc.Sample(r.Context(), req)
	if isUnknownGraph(err) && rt.replayKey(r.Context(), req.Graph) {
		res, err = rt.fc.Sample(r.Context(), req)
	}
	if err != nil {
		rt.writeClientError(w, r, err)
		return
	}
	rt.writeJSON(w, r, http.StatusOK, res)
}

func (rt *router) handleAudit(w http.ResponseWriter, r *http.Request) {
	if err := faultinject.Hook(faultinject.PointRouterProxy); err != nil {
		rt.writeClientError(w, r, err)
		return
	}
	var req client.SampleRequest
	if !rt.decode(w, r, &req) {
		return
	}
	raw, err := rt.fc.Audit(r.Context(), req)
	if isUnknownGraph(err) && rt.replayKey(r.Context(), req.Graph) {
		raw, err = rt.fc.Audit(r.Context(), req)
	}
	if err != nil {
		rt.writeClientError(w, r, err)
		return
	}
	writeRaw(w, raw)
}

// handleStream proxies a stream through the failover client: the caller
// sees one NDJSON stream with exactly-once indices even if the serving
// replica dies mid-flight and the window is resumed elsewhere. The terminal
// done/error line is synthesized by the router (the replicas' own terminal
// lines are consumed by the splice). A stream that fails with 404 before
// delivering anything is healed like the unary endpoints: the graph is
// re-registered from the replay table and the stream reopened once.
func (rt *router) handleStream(w http.ResponseWriter, r *http.Request) {
	if err := faultinject.Hook(faultinject.PointRouterProxy); err != nil {
		rt.writeClientError(w, r, err)
		return
	}
	var req client.StreamRequest
	if !rt.decode(w, r, &req) {
		return
	}
	key := r.PathValue("key")
	err := rt.proxyStream(w, r, key, req)
	if isUnknownGraph(err) && rt.replayKey(r.Context(), key) {
		err = rt.proxyStream(w, r, key, req)
	}
	if err != nil {
		rt.writeClientError(w, r, err)
	}
}

// proxyStream relays one failover stream to w. It returns an error only
// when nothing was written, so the caller can still choose the response.
func (rt *router) proxyStream(w http.ResponseWriter, r *http.Request, key string, req client.StreamRequest) error {
	st, err := rt.fc.Stream(r.Context(), key, req)
	if err != nil {
		return err
	}
	return writeNDJSON(w, st.Results(), client.Result.Line, st.Close, st.Err)
}

func (rt *router) handleTraces(w http.ResponseWriter, r *http.Request) {
	path := "/v1/traces"
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	raw, err := rt.fc.GetRaw(r.Context(), path)
	if err != nil {
		rt.writeClientError(w, r, err)
		return
	}
	writeRaw(w, raw)
}

// handleRing is the placement diagnostic: the cluster membership, and with
// ?key= the exact replica order that key routes through — what an operator
// needs to answer "which replica serves this graph".
func (rt *router) handleRing(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{"endpoints": rt.fc.Endpoints()}
	if key := r.URL.Query().Get("key"); key != "" {
		out["key"] = key
		out["replicas"] = rt.fc.Replicas(key)
	}
	rt.writeJSON(w, r, http.StatusOK, out)
}

func (rt *router) handleStats(w http.ResponseWriter, r *http.Request) {
	rt.regMu.Lock()
	regs := len(rt.registrations)
	rt.regMu.Unlock()
	rt.writeJSON(w, r, http.StatusOK, map[string]any{
		"mode":           "router",
		"routing":        rt.fc.Metrics(),
		"registrations":  regs,
		"replays":        rt.replayed.Load(),
		"requests":       rt.requests.Load(),
		"request_errors": rt.errors.Load(),
		"uptime_seconds": time.Since(rt.started).Seconds(),
	})
}

// handleMetrics is the router's Prometheus surface: request counters and
// latency like a replica, plus per-peer health and routing counters.
func (rt *router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rt.writeMetrics(w, r, func(p *obs.PromWriter) {
		m := rt.fc.Metrics()
		p.Header("spantreed_router_peer_healthy", "Peer breaker state (1 closed, 0 open or half-open).", "gauge")
		healthByEp := map[string]float64{}
		for _, ep := range rt.fc.Endpoints() {
			healthByEp[ep] = 0
		}
		for _, h := range m.Endpoints {
			if h.State == "closed" {
				healthByEp[h.Endpoint] = 1
			}
		}
		for _, ep := range rt.fc.Endpoints() {
			p.Value("spantreed_router_peer_healthy", healthByEp[ep], obs.L{K: "peer", V: ep})
		}
		p.Header("spantreed_router_peer_successes_total", "Successful exchanges by peer.", "counter")
		for _, h := range m.Endpoints {
			p.Value("spantreed_router_peer_successes_total", float64(h.Successes), obs.L{K: "peer", V: h.Endpoint})
		}
		p.Header("spantreed_router_peer_failures_total", "Failed exchanges by peer.", "counter")
		for _, h := range m.Endpoints {
			p.Value("spantreed_router_peer_failures_total", float64(h.Failures), obs.L{K: "peer", V: h.Endpoint})
		}

		p.Header("spantreed_router_attempts_total", "Proxy attempts across all peers.", "counter")
		p.Value("spantreed_router_attempts_total", float64(m.Attempts))
		p.Header("spantreed_router_failovers_total", "Requests moved to another replica after a failure.", "counter")
		p.Value("spantreed_router_failovers_total", float64(m.Failovers))
		p.Header("spantreed_router_retries_total", "Backoff retry rounds.", "counter")
		p.Value("spantreed_router_retries_total", float64(m.Retries))
		p.Header("spantreed_router_hedges_total", "Hedged duplicate requests fired.", "counter")
		p.Value("spantreed_router_hedges_total", float64(m.Hedges))
		p.Header("spantreed_router_registrations", "Graphs in the replay table.", "gauge")
		rt.regMu.Lock()
		regs := len(rt.registrations)
		rt.regMu.Unlock()
		p.Value("spantreed_router_registrations", float64(regs))
		p.Header("spantreed_router_replays_total", "Registrations replayed onto recovered peers.", "counter")
		p.Value("spantreed_router_replays_total", float64(rt.replayed.Load()))

	})
}
