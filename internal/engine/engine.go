package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aldous"
	"repro/internal/core"
	"repro/internal/doubling"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/prng"
	"repro/internal/spanning"
)

// ErrUnknownGraph marks lookups of unregistered graph keys; serving layers
// map it to 404.
var ErrUnknownGraph = errors.New("engine: unknown graph")

// ErrSampleFailed marks a batch aborted by a sampler's runtime failure (as
// opposed to a malformed request); serving layers map it to 500.
var ErrSampleFailed = errors.New("engine: sampling failed")

// ErrSamplePanic marks a sample whose worker panicked. The panic is
// recovered at the per-sample boundary — it fails that request (wrapped in
// ErrSampleFailed, so both errors.Is checks match) and increments
// Metrics.Panics, while the engine and its worker pool stay up.
var ErrSamplePanic = errors.New("engine: sampler panicked")

// ErrDeadlineExceeded marks a request that ran out of its own deadline
// (SamplerSpec.DeadlineMS or the serving layer's default) — whether it was
// still waiting in the admission queue, waiting for a slot, or mid-stream.
// Serving layers map it to 504. Deliberately distinct from
// context.DeadlineExceeded: it identifies the REQUEST's budget, not an
// ambient context, and travels as a context cause through the admission and
// scheduling layers.
var ErrDeadlineExceeded = errors.New("engine: request deadline exceeded")

// ErrDraining marks streams canceled by a shutting-down server's bounded
// drain (Engine.AbortStreams at the drain deadline); serving layers map it
// to 503.
var ErrDraining = errors.New("engine: server draining")

// Deadline stages: where a request was when its deadline fired. Each
// detection lands in the per-stage deadline-exceeded histogram
// (LatencyMetrics.DeadlineExceeded), whose samples measure how far PAST the
// deadline the request was when the stage noticed — persistent large values
// identify slow cancellation paths.
const (
	// stageAdmission: parked in the per-graph admission queue.
	stageAdmission = "admission"
	// stageSlotWait: admitted, waiting for a worker-pool slot.
	stageSlotWait = "slot_wait"
	// stageDispatch: between samples, waiting for delivery-buffer headroom.
	stageDispatch = "dispatch"
	// stageDeliver: sample computed, delivery blocked on the consumer.
	stageDeliver = "deliver"
)

// deadlineStages lists every deadline stage, fixing the histogram set at
// construction so recording is lock-free.
var deadlineStages = []string{stageAdmission, stageSlotWait, stageDispatch, stageDeliver}

// Sampler names a tree-sampling algorithm the engine can run.
type Sampler string

// The samplers the engine dispatches to. Phase and Exact run warm on cached
// per-graph precomputation; the rest are cheap enough per call that there is
// nothing graph-level to reuse.
const (
	// SamplerPhase is the Theorem 1 approximate sampler (core.Sample).
	SamplerPhase Sampler = "phase"
	// SamplerExact is the appendix's exactly uniform variant.
	SamplerExact Sampler = "exact"
	// SamplerLowCover is the Corollary 1 load-balanced doubling sampler.
	SamplerLowCover Sampler = "doubling"
	// SamplerAldousBroder is the sequential Aldous-Broder baseline.
	SamplerAldousBroder Sampler = "aldous"
	// SamplerWilson is Wilson's loop-erased walk sampler.
	SamplerWilson Sampler = "wilson"
	// SamplerMST is the biased §1.4 random-weight MST strawman.
	SamplerMST Sampler = "mst"
)

// Samplers lists every valid Sampler value.
func Samplers() []Sampler {
	return []Sampler{SamplerPhase, SamplerExact, SamplerLowCover, SamplerAldousBroder, SamplerWilson, SamplerMST}
}

// Options configures an Engine.
type Options struct {
	// Workers is the width of the engine-wide stream worker pool — the
	// maximum number of samples computing at once across ALL concurrent
	// streams, arbitrated by weight (default: GOMAXPROCS). Individual
	// streams cap their own share with SamplerSpec.MaxWorkers but can never
	// widen the pool.
	Workers int
	// Config is the sampler configuration used for the phase and exact
	// samplers (zero value: the paper's defaults at each graph's size).
	Config core.Config
	// MaxStreamsPerGraph, when positive, caps how many streams may be in
	// flight per graph key at once; Session.Stream beyond the cap fails
	// synchronously with ErrStreamLimit (HTTP 429 at the serving layer).
	// Collect and Audit run as streams internally, so batch jobs count
	// toward the same cap (one-shot Session.Sample does not). 0 means
	// unlimited.
	MaxStreamsPerGraph int
	// AdmissionQueueDepth, when positive, turns the hard per-graph stream cap
	// into hold-and-wait admission: up to this many Stream requests per graph
	// park in a FIFO when the graph is at MaxStreamsPerGraph, each admitted
	// as an active stream closes. ErrStreamLimit then fires only when the
	// queue itself is full, or when a deadline-bearing request provably
	// cannot be admitted in time (estimated from live queue stats). 0 (the
	// default) keeps the original fail-fast behavior; meaningless without
	// MaxStreamsPerGraph.
	AdmissionQueueDepth int
	// TraceSampleEvery sets the tracer's unforced sampling period: 1 in
	// every N engine-originated requests records a full span trace
	// (0: obs.DefaultSampleEvery; negative: unforced sampling disabled —
	// explicitly forced traces, e.g. HTTP requests carrying X-Request-ID,
	// still record). Tracing is observation-only and never changes output
	// bytes, so the knob trades trace coverage against its small overhead.
	TraceSampleEvery int
	// TraceRing sets how many recent traces the tracer retains for
	// /v1/traces (0: obs.DefaultRingCapacity).
	TraceRing int
	// DataDir, when non-empty, is an existing directory holding the graph
	// registry's manifest: the registry is rehydrated from it at
	// construction and every registration change is written back. Prepared
	// state is never persisted; a restarted engine rebuilds it cold, on first
	// touch or in Warmup. "" (the default) keeps the engine fully in-memory.
	DataDir string
}

// Engine is a registry of graphs plus the engine-wide weighted stream
// scheduler every batch and stream runs on. All methods are safe for
// concurrent use.
type Engine struct {
	reg registry
	cfg core.Config

	// sched is the engine-wide weighted stream scheduler: every
	// Session.Stream leases its compute slots from this one pool.
	sched *scheduler

	batches atomic.Int64
	samples atomic.Int64
	streams atomic.Int64
	aborted atomic.Int64
	panics  atomic.Int64

	// tracer samples engine-originated request traces; latSampler (fixed at
	// construction, one histogram per known sampler), latSchedWait, and
	// latDeadline (one histogram per deadline stage, recording exceeded-by
	// amounts) are the always-on latency histograms Metrics.Latency snapshots.
	tracer       *obs.Tracer
	latSampler   map[Sampler]*obs.Histogram
	latSchedWait *obs.Histogram
	latDeadline  map[string]*obs.Histogram

	// cancelMu guards cancels, the per-stream cancel functions AbortStreams
	// drives during bounded drain.
	cancelMu sync.Mutex
	cancels  map[*Stream]context.CancelCauseFunc

	// sampleHook, when non-nil, runs before every sample. Tests install it to
	// make samplers deliberately slow for cancellation coverage; it must be
	// set before the engine serves traffic.
	sampleHook func()

	// dataDir, when non-empty, holds the registry manifest (see
	// Options.DataDir and persist.go); manifest mirrors the on-disk copy
	// under manMu.
	dataDir  string
	manifest *manifest
	manMu    sync.Mutex
}

// New returns an Engine with the given options.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		cfg:          opts.Config,
		sched:        newScheduler(w, opts.MaxStreamsPerGraph, opts.AdmissionQueueDepth),
		tracer:       obs.NewTracer(opts.TraceSampleEvery, opts.TraceRing),
		latSampler:   make(map[Sampler]*obs.Histogram, len(Samplers())),
		latSchedWait: obs.NewHistogram(),
		latDeadline:  make(map[string]*obs.Histogram, len(deadlineStages)),
		cancels:      make(map[*Stream]context.CancelCauseFunc),
		dataDir:      opts.DataDir,
	}
	for _, s := range Samplers() {
		e.latSampler[s] = obs.NewHistogram()
	}
	for _, stage := range deadlineStages {
		e.latDeadline[stage] = obs.NewHistogram()
	}
	e.reg.init()
	if e.dataDir != "" {
		e.hydrate()
	}
	return e
}

// Tracer returns the engine's trace sampler — serving layers use it to
// force-trace requests carrying an explicit request ID and to snapshot
// recent traces.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// Workers reports the width of the engine-wide stream worker pool.
func (e *Engine) Workers() int { return e.sched.slots }

// Metrics is a snapshot of the engine's cumulative counters. Samples counts
// individually completed draws (so a canceled stream contributes the work it
// finished before aborting); Aborted counts streams ended early by context
// cancellation or a sampler failure. MatrixPool reports the dense-kernel
// scratch pool, which is process-wide, not per-engine — it still belongs here
// because the engine's sampling traffic is what drives it.
type Metrics struct {
	Graphs  int   `json:"graphs"`
	Batches int64 `json:"batches"`
	Samples int64 `json:"samples"`
	Streams int64 `json:"streams"`
	Aborted int64 `json:"aborted"`
	// Panics counts sampler panics recovered at the per-sample boundary
	// (each also failed its request with ErrSamplePanic). Any nonzero value
	// is a bug worth chasing; the counter exists so such bugs surface in
	// monitoring instead of hiding inside per-request error bodies.
	Panics int64 `json:"panics"`
	// StreamPool is the instantaneous state of the engine-wide stream
	// worker pool (width, leased slots, active streams, parked acquires).
	StreamPool StreamPoolMetrics `json:"stream_pool"`
	// StreamsByGraph breaks the active streams down per graph key:
	// active-stream and delivery-queue-depth gauges for each graph with at
	// least one stream in flight (absent when the engine is idle).
	StreamsByGraph map[string]GraphStreamMetrics `json:"streams_by_graph,omitempty"`
	// PhaseCache is always zero: the later-phase cache it reported is gone.
	// It stays only because the frozen benchmark harness (bench/trace.go)
	// still reads it, and goes with the benchmark's next revision.
	PhaseCache struct{ Hits, Misses int64 } `json:"-"`
	MatrixPool matrix.PoolStats             `json:"matrix_pool"`
	// Latency is the engine's latency-histogram block (per-sampler per-tree
	// latency and scheduler slot wait); serving layers add their per-endpoint
	// histograms on top.
	Latency LatencyMetrics `json:"latency"`
}

// LatencyMetrics is the engine's latency-histogram snapshot block.
type LatencyMetrics struct {
	// Samplers holds the per-tree compute latency histogram of every sampler
	// that has completed at least one draw (key: sampler name).
	Samplers map[string]obs.HistSnapshot `json:"samplers,omitempty"`
	// SchedulerWait is the slot-wait histogram: how long stream samples
	// waited for a worker-pool slot before computing.
	SchedulerWait obs.HistSnapshot `json:"scheduler_wait"`
	// AdmissionWait is the admission-queue wait histogram: how long admitted
	// streams sat in their graph's hold-and-wait queue before starting
	// (zero-valued until any stream has queued).
	AdmissionWait obs.HistSnapshot `json:"admission_wait"`
	// DeadlineExceeded breaks deadline expiries down by the stage that
	// noticed (admission, slot_wait, dispatch, deliver); each sample is how
	// far past its deadline the request was at detection. Stages that have
	// never fired are absent.
	DeadlineExceeded map[string]obs.HistSnapshot `json:"deadline_exceeded,omitempty"`
}

// Metrics returns a snapshot of the engine's counters.
func (e *Engine) Metrics() Metrics {
	m := Metrics{
		Graphs:     e.reg.size(),
		Batches:    e.batches.Load(),
		Samples:    e.samples.Load(),
		Streams:    e.streams.Load(),
		Aborted:    e.aborted.Load(),
		Panics:     e.panics.Load(),
		MatrixPool: matrix.ReadPoolStats(),
	}
	m.StreamPool, m.StreamsByGraph = e.sched.snapshot()
	m.Latency.SchedulerWait = e.latSchedWait.Snapshot()
	m.Latency.AdmissionWait = e.sched.queueWait.Snapshot()
	for stage, h := range e.latDeadline {
		if s := h.Snapshot(); s.Count > 0 {
			if m.Latency.DeadlineExceeded == nil {
				m.Latency.DeadlineExceeded = make(map[string]obs.HistSnapshot)
			}
			m.Latency.DeadlineExceeded[stage] = s
		}
	}
	for name, h := range e.latSampler {
		if s := h.Snapshot(); s.Count > 0 {
			if m.Latency.Samplers == nil {
				m.Latency.Samplers = make(map[string]obs.HistSnapshot)
			}
			m.Latency.Samplers[string(name)] = s
		}
	}
	return m
}

// sampleOne dispatches one draw of the spec'd sampler on the entry's graph,
// reusing the entry's cached precomputation where the sampler has any. The
// spec must be normalized. The returned Stats is zero-valued for the
// sequential baselines, which run outside the simulated clique.
//
// Observation: the draw's compute time lands in the per-sampler latency
// histogram, and when tr is non-nil the draw records an "engine/sample"
// span (tagged idx, the request's sample index) plus the per-phase and
// per-superstep spans the lower layers hang off the same trace. None of
// that feeds back into the draw — output bytes are unchanged by tracing.
func (e *Engine) sampleOne(ent *entry, spec SamplerSpec, src *prng.Source, tr *obs.Trace, idx int) (tree *spanning.Tree, stats *core.Stats, err error) {
	if e.sampleHook != nil {
		e.sampleHook()
	}
	start := time.Now()
	sp := tr.StartSpan("engine/sample")
	sp.SetInt("sample", int64(idx))
	defer func() {
		e.latSampler[spec.Name].Observe(time.Since(start))
		sp.End()
	}()
	// Panic isolation: a panicking sampler fails THIS sample with a typed
	// error instead of taking down the worker (and with it the daemon). The
	// recover defer is registered after the latency defer so it runs first
	// (LIFO) and the observation defers still see a normal return.
	defer func() {
		if r := recover(); r != nil {
			e.panics.Add(1)
			tree, stats = nil, nil
			err = fmt.Errorf("%w: %v", ErrSamplePanic, r)
		}
	}()
	if ferr := faultinject.Hook(faultinject.PointSample); ferr != nil {
		return nil, nil, ferr
	}
	switch spec.Name {
	case SamplerPhase:
		prep, err := ent.preparedTraced(e, tr)
		if err != nil {
			return nil, nil, err
		}
		return prep.SampleWith(src, core.SampleOpts{Trace: tr, TraceTag: int64(idx)})
	case SamplerExact:
		prep, err := ent.preparedExactTraced(e, tr)
		if err != nil {
			return nil, nil, err
		}
		return prep.SampleWith(src, core.SampleOpts{Trace: tr, TraceTag: int64(idx)})
	case SamplerLowCover:
		tree, st, err := doubling.SampleTree(ent.g, doubling.TreeConfig{
			SegmentLength: spec.SegmentLength,
		}, src)
		if err != nil {
			return nil, nil, err
		}
		return tree, &core.Stats{
			Rounds:     st.Rounds,
			Supersteps: st.Supersteps,
			TotalWords: st.TotalWords,
			WalkSteps:  st.WalkSteps,
		}, nil
	case SamplerAldousBroder:
		maxSteps := spec.MaxSteps
		if maxSteps == 0 {
			maxSteps = aldous.DefaultMaxSteps(ent.g.N())
		}
		tree, err := aldous.AldousBroder(ent.g, spec.Root, maxSteps, src)
		return tree, &core.Stats{}, err
	case SamplerWilson:
		tree, err := aldous.Wilson(ent.g, spec.Root, src)
		return tree, &core.Stats{}, err
	case SamplerMST:
		tree, err := aldous.RandomWeightMST(ent.g, src)
		return tree, &core.Stats{}, err
	default:
		return nil, nil, fmt.Errorf("%w: %q (known: %v)", ErrUnknownSampler, spec.Name, Samplers())
	}
}

// noteDeadline records a deadline expiry detected at the named stage when
// ctx died because the REQUEST's deadline fired (cause ErrDeadlineExceeded);
// it reports whether it did. The histogram sample is how far past its
// deadline the request was at detection.
func (e *Engine) noteDeadline(ctx context.Context, stage string) bool {
	if !errors.Is(context.Cause(ctx), ErrDeadlineExceeded) {
		return false
	}
	var over time.Duration
	if dl, ok := ctx.Deadline(); ok {
		if over = time.Since(dl); over < 0 {
			over = 0
		}
	}
	e.latDeadline[stage].Observe(over)
	return true
}

// registerCancel enrolls an in-flight stream's cancel for AbortStreams;
// the stream deregisters itself as it winds down.
func (e *Engine) registerCancel(st *Stream, cancel context.CancelCauseFunc) {
	e.cancelMu.Lock()
	e.cancels[st] = cancel
	e.cancelMu.Unlock()
}

func (e *Engine) deregisterCancel(st *Stream) {
	e.cancelMu.Lock()
	delete(e.cancels, st)
	e.cancelMu.Unlock()
}

// AbortStreams cancels every in-flight stream with the given cause
// (nil: ErrDraining) and reports how many it canceled. It is the teeth of a
// bounded graceful drain: a shutting-down server first waits out its drain
// budget, then aborts what remains so the server can close promptly. In-flight
// samples finish computing (a slot is held only while computing) but no new
// samples dispatch, and each aborted stream's Err wraps the cause.
func (e *Engine) AbortStreams(cause error) int {
	if cause == nil {
		cause = ErrDraining
	}
	e.cancelMu.Lock()
	cancels := make([]context.CancelCauseFunc, 0, len(e.cancels))
	for _, c := range e.cancels {
		cancels = append(cancels, c)
	}
	e.cancelMu.Unlock()
	for _, c := range cancels {
		c(cause)
	}
	return len(cancels)
}

// QueueStats snapshots one graph's admission queue — the serving layer's
// source for Retry-After and the 429 body's queued/queue_wait fields. It is
// cheap and safe to call for unregistered keys (all-zero stats).
func (e *Engine) QueueStats(graph string) QueueStats {
	return e.sched.queueStats(graph)
}

// Warmup eagerly builds the phase-sampler prepared state of every registered
// graph — exactly what the first phase request of each graph would have done
// lazily. It is the readiness hook for replicated serving: a restarted
// replica calls Warmup in the background and keeps /readyz reporting
// "loading" until it returns, so a router never routes to a replica still
// preparing the graphs it rehydrated from its data dir. Warmup changes no
// output bytes
// (each entry's prepared state resolves under its sync.Once either way); it
// only moves the cost off the first request. ctx cancels between graphs.
// Per-graph prepare failures don't stop the sweep — they are joined into the
// returned error (the same error those graphs' requests will report) while
// every other graph still warms.
func (e *Engine) Warmup(ctx context.Context) error {
	var errs []error
	for _, key := range e.reg.keys() {
		if ctx != nil && ctx.Err() != nil {
			return context.Cause(ctx)
		}
		ent, err := e.reg.get(key)
		if err != nil {
			continue // deregistered mid-sweep
		}
		if _, err := ent.prepared(e); err != nil {
			errs = append(errs, fmt.Errorf("warming %q: %w", key, err))
		}
	}
	return errors.Join(errs...)
}

// Graph returns the registered graph under key.
func (e *Engine) Graph(key string) (*graph.Graph, error) {
	ent, err := e.reg.get(key)
	if err != nil {
		return nil, err
	}
	return ent.g, nil
}
