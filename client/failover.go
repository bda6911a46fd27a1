package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// FailoverOptions configures a FailoverClient. The zero value is usable.
type FailoverOptions struct {
	// Replication is how many replicas serve each graph key (the R of the
	// ring's R-way replica sets). 0 means every endpoint replicates every
	// graph.
	Replication int
	// AuthToken is the bearer token sent to every replica.
	AuthToken string
	// HedgeQuantile picks the unary-latency quantile whose value becomes the
	// hedging delay: a Sample not answered within that time fires a duplicate
	// at the next replica and the first answer wins (default 0.99). Negative
	// disables hedging.
	HedgeQuantile float64
	// HedgeMin floors the hedging delay so cold latency stats can't hedge
	// instantly (default 25ms).
	HedgeMin time.Duration
	// FailureThreshold and Cooldown tune the per-endpoint circuit breaker
	// (defaults: 3 consecutive failures, 1s cooldown).
	FailureThreshold int
	Cooldown         time.Duration
	// ProbeInterval enables active health probing: every interval each
	// endpoint's /readyz is checked and the result fed to the breaker, so
	// dead and hydrating replicas are discovered without burning a live
	// request on them. 0 (the default) is passive-only tracking.
	ProbeInterval time.Duration
	// OnRecover fires when an endpoint transitions unhealthy→healthy
	// (whether a probe or live traffic noticed). The router replays graph
	// registrations onto rejoining replicas here.
	OnRecover func(endpoint string)
}

// Retry schedule. A request makes at most maxRounds full passes over a
// key's replica set before giving up; a pass that delivers new stream
// results resets the count, since giving up mid-progress would waste the
// work. Between failed rounds the client waits backoffBase, doubled each
// round with ±50% jitter and capped at maxBackoff; a server 429's
// Retry-After overrides the computed delay for that round.
const (
	maxRounds   = 3
	backoffBase = 50 * time.Millisecond
	maxBackoff  = 2 * time.Second
)

// FailoverClient spreads requests over a replica set: consistent-hash
// routing (the same ring the router uses, so both pick the same owner),
// per-endpoint circuit breakers fed passively by live traffic, jittered
// exponential retry that honors server Retry-After, latency-quantile hedging
// for unary samples, and exactly-once mid-stream failover for streams.
//
// Because replicas are byte-identical (determinism contract), every behavior
// here changes only which TCP connection bytes arrive on — never the bytes.
type FailoverClient struct {
	ring        *cluster.Ring
	replication int
	tracker     *cluster.Tracker
	clients     map[string]*HTTPClient
	opts        FailoverOptions
	lat         *obs.Histogram // successful unary latencies, feeds hedging

	// sleep is the between-round delay primitive, injectable so backoff
	// tests assert chosen delays instead of actually waiting.
	sleep func(ctx context.Context, d time.Duration) error

	rngMu sync.Mutex
	rng   *rand.Rand

	attempts  atomic.Int64
	failovers atomic.Int64
	retries   atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
}

// NewFailover returns a failover client over the replica endpoints.
func NewFailover(endpoints []string, opts FailoverOptions) (*FailoverClient, error) {
	if len(endpoints) == 0 {
		return nil, errors.New("client: no endpoints")
	}
	if opts.HedgeQuantile == 0 {
		opts.HedgeQuantile = 0.99
	}
	if opts.HedgeMin <= 0 {
		opts.HedgeMin = 25 * time.Millisecond
	}
	ring := cluster.NewRing(endpoints, 0)
	if ring.Len() == 0 {
		return nil, errors.New("client: no usable endpoints")
	}
	if opts.Replication <= 0 || opts.Replication > ring.Len() {
		opts.Replication = ring.Len()
	}
	c := &FailoverClient{
		ring:        ring,
		replication: opts.Replication,
		clients:     make(map[string]*HTTPClient, ring.Len()),
		opts:        opts,
		lat:         obs.NewHistogram(),
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	topts := cluster.TrackerOptions{
		FailureThreshold: opts.FailureThreshold,
		Cooldown:         opts.Cooldown,
		OnRecover:        opts.OnRecover,
	}
	if opts.ProbeInterval > 0 {
		topts.Interval = opts.ProbeInterval
		topts.Probe = func(ctx context.Context, ep string) error {
			return c.clients[ep].Ready(ctx)
		}
	}
	c.tracker = cluster.NewTracker(ring.Endpoints(), topts)
	c.sleep = func(ctx context.Context, d time.Duration) error {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return context.Cause(ctx)
		}
	}
	for _, ep := range ring.Endpoints() {
		hopts := []Option{}
		if opts.AuthToken != "" {
			hopts = append(hopts, WithAuthToken(opts.AuthToken))
		}
		c.clients[ep] = NewHTTP(ep, hopts...)
	}
	c.tracker.Start() // no-op unless ProbeInterval is set
	return c, nil
}

// Peer returns the per-endpoint transport client for ep (nil for unknown
// endpoints) — the router uses it to replay registrations onto a specific
// recovered replica.
func (c *FailoverClient) Peer(ep string) *HTTPClient { return c.clients[ep] }

// Healthy reports whether ep's breaker is currently closed.
func (c *FailoverClient) Healthy(ep string) bool { return c.tracker.Healthy(ep) }

// Endpoints returns every configured replica endpoint, sorted.
func (c *FailoverClient) Endpoints() []string { return c.ring.Endpoints() }

// Close releases the client's health tracker.
func (c *FailoverClient) Close() { c.tracker.Close() }

// Replicas returns the failover-ordered replica set for key — identical on
// every client and router built over the same endpoint set.
func (c *FailoverClient) Replicas(key string) []string {
	return c.ring.Replicas(key, c.replication)
}

// candidates orders the endpoints a request for key should try: the key's
// replica set (or every endpoint for cluster-wide reads), breaker-refused
// endpoints filtered out — unless that filters everything, in which case the
// full set is returned so a fully-open cluster still gets trial traffic.
func (c *FailoverClient) candidates(key string) []string {
	var reps []string
	if key == "" {
		reps = c.ring.Endpoints()
	} else {
		reps = c.ring.Replicas(key, c.replication)
	}
	allowed := make([]string, 0, len(reps))
	for _, ep := range reps {
		if c.tracker.Allow(ep) {
			allowed = append(allowed, ep)
		}
	}
	if len(allowed) == 0 {
		return reps
	}
	return allowed
}

// outcome classifies one attempt's error for the retry loop.
type outcome int

const (
	ok outcome = iota
	fatal
	skipReplica // try the next replica; the endpoint itself is fine
	markDown    // try the next replica AND count against the breaker
)

// classify sorts an attempt error. 404 skips the replica (the graph may be
// registered elsewhere), 429 skips it carrying the server's backoff hint,
// other 4xx are the caller's fault (fatal), 5xx and transport errors count
// against the endpoint's breaker, and context expiry is always fatal.
func classify(err error) (outcome, time.Duration) {
	if err == nil {
		return ok, 0
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fatal, 0
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch {
		case apiErr.Status == http.StatusNotFound:
			return skipReplica, 0
		case apiErr.Status == http.StatusTooManyRequests:
			return skipReplica, apiErr.RetryAfter
		case apiErr.Status >= 500:
			return markDown, 0
		default:
			return fatal, 0
		}
	}
	return markDown, 0 // connect failures, timeouts, truncated bodies
}

// backoffDelay computes the round's jittered exponential delay; a positive
// retryAfter (from a 429) overrides it — the server's estimate of its own
// drain rate beats the client's blind schedule.
func (c *FailoverClient) backoffDelay(round int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		return retryAfter
	}
	d := backoffBase << uint(round)
	if d > maxBackoff {
		d = maxBackoff
	}
	// ±50% jitter decorrelates clients that failed together.
	c.rngMu.Lock()
	j := time.Duration(c.rng.Int63n(int64(d) + 1))
	c.rngMu.Unlock()
	return d/2 + j/2 + d/4
}

// unary runs fn against key's replicas with failover and between-round
// backoff until it succeeds, fails fatally, or exhausts maxRounds.
func (c *FailoverClient) unary(ctx context.Context, key string, fn func(*HTTPClient) error) error {
	return c.unaryOver(ctx, c.candidates(key), fn)
}

// Register admits the graph on every replica in its R-way set — the fan-out
// that makes later failover possible. A replica that already has the key
// counts as registered. Registration succeeds if at least one replica
// admitted (or had) the graph; replicas that were down catch up via the
// router's recovery replay or an explicit re-Register.
func (c *FailoverClient) Register(ctx context.Context, req RegisterRequest) (GraphInfo, error) {
	var (
		info   GraphInfo
		gotOne bool
		errs   []error
	)
	for _, ep := range c.Replicas(req.Key) {
		c.attempts.Add(1)
		in, err := c.clients[ep].Register(ctx, req)
		if err != nil {
			var apiErr *APIError
			if errors.As(err, &apiErr) && apiErr.Status == http.StatusBadRequest &&
				strings.Contains(apiErr.Message, "already registered") {
				c.tracker.ReportSuccess(ep)
				gotOne = true
				continue
			}
			if v, _ := classify(err); v == markDown {
				c.tracker.ReportFailure(ep, err)
			}
			errs = append(errs, fmt.Errorf("%s: %w", ep, err))
			continue
		}
		c.tracker.ReportSuccess(ep)
		if !gotOne {
			info = in
		}
		gotOne = true
	}
	if !gotOne {
		return GraphInfo{}, fmt.Errorf("client: register %q failed on every replica: %w", req.Key, errors.Join(errs...))
	}
	if info.Key == "" { // every success was "already registered"
		return c.Info(ctx, req.Key)
	}
	return info, nil
}

// Deregister removes the graph from every replica in its set; replicas that
// never had it (404) count as removed.
func (c *FailoverClient) Deregister(ctx context.Context, key string) error {
	var (
		gotOne bool
		errs   []error
	)
	for _, ep := range c.Replicas(key) {
		c.attempts.Add(1)
		err := c.clients[ep].Deregister(ctx, key)
		verdict, _ := classify(err)
		switch verdict {
		case ok:
			c.tracker.ReportSuccess(ep)
			gotOne = true
		case skipReplica: // 404: nothing to remove here
			gotOne = true
		case markDown:
			c.tracker.ReportFailure(ep, err)
			errs = append(errs, fmt.Errorf("%s: %w", ep, err))
		default:
			errs = append(errs, fmt.Errorf("%s: %w", ep, err))
		}
	}
	if !gotOne {
		return fmt.Errorf("client: deregister %q failed on every replica: %w", key, errors.Join(errs...))
	}
	return nil
}

// Graphs lists graphs from the first answering endpoint.
func (c *FailoverClient) Graphs(ctx context.Context) ([]GraphInfo, error) {
	var out []GraphInfo
	err := c.unary(ctx, "", func(h *HTTPClient) error {
		gs, err := h.Graphs(ctx)
		if err == nil {
			out = gs
		}
		return err
	})
	return out, err
}

// Info describes key from the first answering replica in its set.
func (c *FailoverClient) Info(ctx context.Context, key string) (GraphInfo, error) {
	var out GraphInfo
	err := c.unary(ctx, key, func(h *HTTPClient) error {
		in, err := h.Info(ctx, key)
		if err == nil {
			out = in
		}
		return err
	})
	return out, err
}

// Audit draws an audited batch from key's replica set with failover,
// returning the answering replica's raw response bytes.
func (c *FailoverClient) Audit(ctx context.Context, req SampleRequest) (json.RawMessage, error) {
	var out json.RawMessage
	err := c.unary(ctx, req.Graph, func(h *HTTPClient) error {
		raw, err := h.Audit(ctx, req)
		if err == nil {
			out = raw
		}
		return err
	})
	return out, err
}

// GetRaw proxies a read-only GET to the first answering endpoint.
func (c *FailoverClient) GetRaw(ctx context.Context, path string) (json.RawMessage, error) {
	var out json.RawMessage
	err := c.unary(ctx, "", func(h *HTTPClient) error {
		raw, err := h.GetRaw(ctx, path)
		if err == nil {
			out = raw
		}
		return err
	})
	return out, err
}

// hedgeDelay derives the hedging delay from observed unary latency: the
// configured quantile, floored by HedgeMin (also the cold-start default).
func (c *FailoverClient) hedgeDelay() time.Duration {
	d := time.Duration(c.lat.Quantile(c.opts.HedgeQuantile) * float64(time.Second))
	if d < c.opts.HedgeMin {
		d = c.opts.HedgeMin
	}
	return d
}

// Sample draws a batch with failover and hedging: the primary attempt walks
// the replica set normally; if it hasn't answered within the latency-P99
// derived delay, a duplicate fires at the next replica and the first answer
// wins. Replica determinism makes the duplicate byte-identical, so hedging
// can only improve latency, never change results.
func (c *FailoverClient) Sample(ctx context.Context, req SampleRequest) (*SampleResult, error) {
	reps := c.candidates(req.Graph)
	type reply struct {
		res *SampleResult
		err error
	}
	attempt := func(ctx context.Context, order []string) reply {
		var out *SampleResult
		err := c.unaryOver(ctx, order, func(h *HTTPClient) error {
			res, err := h.Sample(ctx, req)
			if err == nil {
				out = res
			}
			return err
		})
		return reply{out, err}
	}
	if c.opts.HedgeQuantile < 0 || len(reps) < 2 {
		r := attempt(ctx, reps)
		return r.res, r.err
	}

	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // the loser's in-flight request is abandoned
	replies := make(chan reply, 2)
	go func() { replies <- attempt(hctx, reps) }()

	t := time.NewTimer(c.hedgeDelay())
	defer t.Stop()
	select {
	case r := <-replies: // primary settled before the hedge delay
		return r.res, r.err
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	case <-t.C:
	}
	// Primary is slow: duplicate the request with the replica order rotated
	// so the hedge lands on the NEXT replica first, and take the first
	// answer. Byte-identical replicas make the race benign.
	c.hedges.Add(1)
	rotated := append(append([]string{}, reps[1:]...), reps[0])
	go func() { replies <- attempt(hctx, rotated) }()
	first := <-replies
	if first.err == nil {
		c.hedgeWins.Add(1)
		return first.res, nil
	}
	second := <-replies
	if second.err == nil {
		return second.res, nil
	}
	return nil, first.err
}

// unaryOver is unary with an explicit endpoint order (the hedging path).
func (c *FailoverClient) unaryOver(ctx context.Context, order []string, fn func(*HTTPClient) error) error {
	var lastErr error
	for round := 0; round < maxRounds; round++ {
		if round > 0 {
			c.retries.Add(1)
		}
		var retryAfter time.Duration
		for i, ep := range order {
			if i > 0 {
				c.failovers.Add(1)
			}
			c.attempts.Add(1)
			start := time.Now()
			err := fn(c.clients[ep])
			verdict, hint := classify(err)
			switch verdict {
			case ok:
				c.tracker.ReportSuccess(ep)
				c.lat.Observe(time.Since(start))
				return nil
			case fatal:
				return err
			case markDown:
				c.tracker.ReportFailure(ep, err)
			case skipReplica:
				if hint > retryAfter {
					retryAfter = hint
				}
			}
			lastErr = err
		}
		if round < maxRounds-1 {
			if err := c.sleep(ctx, c.backoffDelay(round, retryAfter)); err != nil {
				return err
			}
		}
	}
	return fmt.Errorf("client: all replicas failed: %w", lastErr)
}

// Stream opens a resumable stream on key: results flow from the owning
// replica until the window completes; if the replica dies mid-flight (or
// answers with a retryable error), the stream resumes on the next replica
// from the first undelivered index and duplicates are dropped by index. The
// consumer sees every index in [StartIndex, StartIndex+K) exactly once,
// byte-identical to an uninterrupted single-replica stream.
func (c *FailoverClient) Stream(ctx context.Context, key string, req StreamRequest) (*Stream, error) {
	if req.K <= 0 {
		return nil, fmt.Errorf("client: stream needs k >= 1, got %d", req.K)
	}
	sctx, cancel := context.WithCancel(ctx)
	out := newStream(16, cancel)
	go c.runStream(sctx, out, key, req)
	return out, nil
}

func (c *FailoverClient) runStream(ctx context.Context, out *Stream, key string, req StreamRequest) {
	defer close(out.results)
	start, end := req.StartIndex, req.StartIndex+req.K
	received := make([]bool, req.K)
	remaining := req.K
	var lastErr error
	for round := 0; round < maxRounds; round++ {
		if round > 0 {
			c.retries.Add(1)
		}
		var retryAfter time.Duration
		progressed := false
		for i, ep := range c.candidates(key) {
			if i > 0 || round > 0 {
				c.failovers.Add(1)
			}
			c.attempts.Add(1)
			// Resume window: the lowest undelivered index onward. Everything
			// below it has been delivered; duplicates inside are dropped.
			lo := start
			for lo < end && received[lo-start] {
				lo++
			}
			sub := req
			sub.StartIndex, sub.K = lo, end-lo
			st, err := c.clients[ep].Stream(ctx, key, sub)
			if err == nil {
				var delivered bool
				delivered, err = c.relay(ctx, out, st, received, start, end, &remaining)
				progressed = progressed || delivered
				if err == nil && remaining == 0 {
					c.tracker.ReportSuccess(ep)
					return
				}
				if err == nil {
					// Terminal line arrived with indices still missing — a
					// protocol violation; resume covers it like a truncation.
					err = errTruncated
				}
			}
			verdict, hint := classify(err)
			switch verdict {
			case fatal:
				out.setErr(err)
				return
			case markDown:
				c.tracker.ReportFailure(ep, err)
			case skipReplica:
				if hint > retryAfter {
					retryAfter = hint
				}
			}
			lastErr = err
		}
		if progressed {
			// The window advanced this round: keep going rather than counting
			// toward maxRounds — giving up mid-progress wastes delivered work.
			round = -1
			continue
		}
		if round < maxRounds-1 {
			if err := c.sleep(ctx, c.backoffDelay(round, retryAfter)); err != nil {
				out.setErr(err)
				return
			}
		}
	}
	out.setErr(fmt.Errorf("client: stream failed on all replicas: %w", lastErr))
}

// relay forwards one underlying replica stream into out, dropping indices
// outside the window or already delivered. It reports whether any new index
// was delivered and the stream's terminal error (nil on a clean done line).
func (c *FailoverClient) relay(ctx context.Context, out *Stream, st *Stream, received []bool, start, end int, remaining *int) (bool, error) {
	delivered := false
	for r := range st.Results() {
		if r.Index < start || r.Index >= end || received[r.Index-start] {
			continue
		}
		select {
		case out.results <- r:
		case <-ctx.Done():
			st.Close()
			return delivered, context.Cause(ctx)
		}
		received[r.Index-start] = true
		*remaining--
		delivered = true
	}
	return delivered, st.Err()
}

// FailoverMetrics is a snapshot of the client's routing counters and the
// health of every endpoint, JSON-ready.
type FailoverMetrics struct {
	Attempts  int64                    `json:"attempts"`
	Failovers int64                    `json:"failovers"`
	Retries   int64                    `json:"retries"`
	Hedges    int64                    `json:"hedges"`
	HedgeWins int64                    `json:"hedge_wins"`
	Endpoints []cluster.EndpointHealth `json:"endpoints"`
}

// Metrics snapshots the client's counters and per-endpoint health.
func (c *FailoverClient) Metrics() FailoverMetrics {
	return FailoverMetrics{
		Attempts:  c.attempts.Load(),
		Failovers: c.failovers.Load(),
		Retries:   c.retries.Load(),
		Hedges:    c.hedges.Load(),
		HedgeWins: c.hedgeWins.Load(),
		Endpoints: c.tracker.Snapshot(),
	}
}
