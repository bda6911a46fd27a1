package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// BreakerState is one endpoint's circuit breaker position.
type BreakerState int

const (
	// Closed: the endpoint is healthy; requests flow.
	Closed BreakerState = iota
	// Open: the endpoint exceeded the failure threshold; requests are
	// refused until the cooldown elapses.
	Open
	// HalfOpen: the cooldown elapsed and exactly one trial request is in
	// flight; its outcome closes or re-opens the breaker.
	HalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// TrackerOptions configures a Tracker. The zero value is usable: purely
// passive tracking with a 3-failure threshold and a 1-second cooldown.
type TrackerOptions struct {
	// FailureThreshold is how many consecutive failures open the breaker
	// (default 3). The count resets on any success.
	FailureThreshold int
	// Cooldown is how long an open breaker refuses traffic before admitting
	// one half-open trial (default 1s).
	Cooldown time.Duration
	// Probe actively checks an endpoint — the router points this at each
	// replica's /readyz. Optional; nil means passive-only tracking, where
	// recovery rides on half-open trial requests from live traffic.
	Probe func(ctx context.Context, endpoint string) error
	// Interval is the active probe period. 0 disables the prober even when
	// Probe is set.
	Interval time.Duration
	// OnRecover fires (outside the tracker's lock) when an endpoint
	// transitions from open or half-open back to closed. The router replays
	// graph registrations onto the rejoining replica here.
	OnRecover func(endpoint string)
}

// Tracker maintains per-endpoint health: passive success/failure marks from
// live traffic, an optional active prober, and a per-endpoint circuit
// breaker with half-open recovery. All methods are safe for concurrent use.
type Tracker struct {
	opts TrackerOptions
	now  func() time.Time // injectable clock for deterministic tests

	mu  sync.Mutex
	eps map[string]*endpointState

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
	probing   atomic.Bool // set iff probeLoop was spawned
}

type endpointState struct {
	state       BreakerState
	openedAt    time.Time
	consecutive int
	successes   int64
	failures    int64
	lastErr     string
}

// NewTracker returns a tracker over the given endpoints (more join
// implicitly via Report calls). Endpoints start Closed — the optimistic
// default, so a fresh cluster serves immediately and the first real
// failure is what opens a breaker.
func NewTracker(endpoints []string, opts TrackerOptions) *Tracker {
	if opts.FailureThreshold <= 0 {
		opts.FailureThreshold = 3
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = time.Second
	}
	t := &Tracker{
		opts: opts,
		now:  time.Now,
		eps:  make(map[string]*endpointState, len(endpoints)),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for _, ep := range endpoints {
		t.eps[ep] = &endpointState{}
	}
	return t
}

// get returns the state for endpoint, creating it Closed. Caller holds mu.
func (t *Tracker) get(endpoint string) *endpointState {
	st, ok := t.eps[endpoint]
	if !ok {
		st = &endpointState{}
		t.eps[endpoint] = st
	}
	return st
}

// Allow reports whether a request may be sent to endpoint right now. Closed
// endpoints always pass. Open endpoints refuse until the cooldown elapses,
// then exactly one caller is admitted as the half-open trial; everyone else
// keeps getting false until that trial's Report call settles the breaker.
func (t *Tracker) Allow(endpoint string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.get(endpoint)
	switch st.state {
	case Closed:
		return true
	case Open:
		if t.now().Sub(st.openedAt) >= t.opts.Cooldown {
			st.state = HalfOpen
			return true
		}
		return false
	default: // HalfOpen: trial already in flight
		return false
	}
}

// Healthy reports whether endpoint's breaker is closed — the routing-table
// read, cheaper than Allow because it never mutates breaker state.
func (t *Tracker) Healthy(endpoint string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.get(endpoint).state == Closed
}

// ReportSuccess marks a successful exchange with endpoint. It resets the
// consecutive-failure count and closes an open or half-open breaker, firing
// OnRecover for that transition.
func (t *Tracker) ReportSuccess(endpoint string) {
	t.mu.Lock()
	st := t.get(endpoint)
	recovered := st.state != Closed
	st.state = Closed
	st.consecutive = 0
	st.successes++
	st.lastErr = ""
	cb := t.opts.OnRecover
	t.mu.Unlock()
	if recovered && cb != nil {
		cb(endpoint)
	}
}

// ReportFailure marks a failed exchange with endpoint. Reaching the
// consecutive-failure threshold opens the breaker; a failed half-open trial
// re-opens it for another full cooldown.
func (t *Tracker) ReportFailure(endpoint string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.get(endpoint)
	st.consecutive++
	st.failures++
	if err != nil {
		st.lastErr = err.Error()
	}
	switch st.state {
	case HalfOpen:
		st.state = Open
		st.openedAt = t.now()
	case Closed:
		if st.consecutive >= t.opts.FailureThreshold {
			st.state = Open
			st.openedAt = t.now()
		}
	}
}

// EndpointHealth is one endpoint's Snapshot row, JSON-ready for /metrics.
type EndpointHealth struct {
	Endpoint            string `json:"endpoint"`
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
	Successes           int64  `json:"successes"`
	Failures            int64  `json:"failures"`
	LastError           string `json:"last_error,omitempty"`
}

// Snapshot returns every tracked endpoint's health, sorted by endpoint.
func (t *Tracker) Snapshot() []EndpointHealth {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]EndpointHealth, 0, len(t.eps))
	for ep, st := range t.eps {
		out = append(out, EndpointHealth{
			Endpoint:            ep,
			State:               st.state.String(),
			ConsecutiveFailures: st.consecutive,
			Successes:           st.successes,
			Failures:            st.failures,
			LastError:           st.lastErr,
		})
	}
	sortHealth(out)
	return out
}

func sortHealth(hs []EndpointHealth) {
	for i := 1; i < len(hs); i++ {
		for j := i; j > 0 && hs[j].Endpoint < hs[j-1].Endpoint; j-- {
			hs[j], hs[j-1] = hs[j-1], hs[j]
		}
	}
}

// Start launches the active prober: every Interval it probes each tracked
// endpoint whose breaker Allow admits (closed endpoints are probed too — the
// cheap way to notice a replica died while idle) and feeds the outcome back
// through ReportSuccess/ReportFailure. No-op unless both Probe and Interval
// are set. Idempotent; Close joins the goroutine.
func (t *Tracker) Start() {
	t.startOnce.Do(func() {
		if t.opts.Probe == nil || t.opts.Interval <= 0 {
			return
		}
		select {
		case <-t.stop: // already closed
			return
		default:
		}
		t.probing.Store(true)
		go t.probeLoop()
	})
}

func (t *Tracker) probeLoop() {
	defer close(t.done)
	tick := time.NewTicker(t.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
			t.probeAll()
		}
	}
}

func (t *Tracker) probeAll() {
	t.mu.Lock()
	eps := make([]string, 0, len(t.eps))
	for ep := range t.eps {
		eps = append(eps, ep)
	}
	t.mu.Unlock()
	for _, ep := range eps {
		if !t.Allow(ep) {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), t.opts.Interval)
		err := t.opts.Probe(ctx, ep)
		cancel()
		if err != nil {
			t.ReportFailure(ep, err)
		} else {
			t.ReportSuccess(ep)
		}
	}
}

// Close stops the prober (if running) and waits for it to exit, so
// goroutine-leak-checked tests can tear the tracker down cleanly. Safe to
// call multiple times, and before or without Start.
func (t *Tracker) Close() {
	t.startOnce.Do(func() {}) // forbid a post-Close Start from spawning
	t.stopOnce.Do(func() { close(t.stop) })
	if t.probing.Load() {
		<-t.done
	}
}
