// Package spantree is a Go reproduction of "Sublinear-Time Sampling of
// Spanning Trees in the Congested Clique" (Pemmaraju, Roy, Sobel; PODC
// 2025, arXiv:2411.13334).
//
// It provides:
//
//   - Sample: the paper's main contribution (Theorem 1) — an approximately
//     uniform spanning tree sampler running on a simulated congested clique
//     in Õ(n^(1/2+α)) simulated rounds, built from top-down walk filling,
//     distributed binary search truncation, multiset compression with
//     perfect-matching placement, and Schur-complement walk shortcutting.
//   - SampleExact: the appendix's exact variant (Õ(n^(2/3+α)) rounds).
//   - SampleLowCoverTime: the Corollary 1 sampler for graphs with small
//     cover times, built on the Section 3 load-balanced doubling algorithm.
//   - Baselines: sequential Aldous-Broder, Wilson's algorithm, the naive
//     one-step-per-round distributed port, and the (biased!) random-weight
//     MST strawman of §1.4.
//   - Ground truth: exact spanning tree counts (Matrix-Tree), tree
//     enumeration, and a uniformity audit harness.
//
// All samplers are deterministic functions of their seed. Round counts
// reported in Stats are simulated communication rounds under Lenzen's
// routing accounting (see internal/clique); they are meant for shape
// comparisons against the paper's bounds, not wall-clock time.
package spantree

import (
	"context"
	"fmt"
	"math/big"
	"os"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mm"
	"repro/internal/obs"
	"repro/internal/prng"
	"repro/internal/spanning"
)

// Graph is an undirected weighted graph on vertices 0..n-1. Construct with
// NewGraph and AddEdge/AddUnitEdge, or use the generators in this package.
type Graph = graph.Graph

// Edge is an undirected weighted edge.
type Edge = graph.Edge

// Tree is a spanning tree (a validated, canonically ordered edge list).
type Tree = spanning.Tree

// Stats reports the simulated cost of a congested clique sampler run.
type Stats = core.Stats

// AuditResult summarizes a uniformity audit.
type AuditResult = spanning.AuditResult

// NewGraph returns an edgeless graph on n vertices.
func NewGraph(n int) (*Graph, error) { return graph.New(n) }

// Graph generators, re-exported from the internal graph package. See each
// generator's documentation for parameter constraints.
var (
	Complete            = graph.Complete
	Path                = graph.Path
	Cycle               = graph.Cycle
	Star                = graph.Star
	Wheel               = graph.Wheel
	Grid                = graph.Grid
	Torus               = graph.Torus
	Hypercube           = graph.Hypercube
	BinaryTree          = graph.BinaryTree
	CompleteBipartite   = graph.CompleteBipartite
	UnbalancedBipartite = graph.UnbalancedBipartite
	Lollipop            = graph.Lollipop
	Barbell             = graph.Barbell
)

// BuildFamily constructs a named graph family at (approximately) n vertices
// — the same names cmd/spantree and the spantreed server accept. Random
// families (er, regular, expander) are deterministic in seed.
func BuildFamily(family string, n int, seed uint64) (*Graph, error) {
	return graph.FromFamily(family, n, prng.New(seed))
}

// FamilyNames lists the families BuildFamily can construct.
func FamilyNames() []string { return graph.FamilyNames() }

// ErdosRenyi samples a connected G(n, p) graph.
func ErdosRenyi(n int, p float64, seed uint64) (*Graph, error) {
	return graph.ErdosRenyi(n, p, prng.New(seed))
}

// RandomRegular samples a connected d-regular graph.
func RandomRegular(n, d int, seed uint64) (*Graph, error) {
	return graph.RandomRegular(n, d, prng.New(seed))
}

// Expander samples an 8-regular random graph (an O(n log n) cover-time
// family).
func Expander(n int, seed uint64) (*Graph, error) {
	return graph.Expander(n, prng.New(seed))
}

// options collects the Sample configuration; see the With* constructors.
type options struct {
	seed       uint64
	cfg        core.Config
	segLen     int
	treePath   bool
	maxStreams int
	admitQueue int
	traceEvery int
	traceRing  int
	dataDir    string
}

// Option configures the samplers.
type Option func(*options) error

// WithSeed fixes the random seed (default 1). Identical seeds yield
// identical trees and cost profiles.
func WithSeed(seed uint64) Option {
	return func(o *options) error {
		o.seed = seed
		return nil
	}
}

// WithEpsilon sets the total variation target ε of Theorem 1 (default 1/n).
func WithEpsilon(eps float64) Option {
	return func(o *options) error {
		if eps <= 0 || eps >= 1 {
			return fmt.Errorf("spantree: epsilon must be in (0,1), got %g", eps)
		}
		o.cfg.Epsilon = eps
		return nil
	}
}

// WithRho overrides the per-phase distinct-vertex budget (default ⌊√n⌋).
func WithRho(rho int) Option {
	return func(o *options) error {
		if rho < 2 {
			return fmt.Errorf("spantree: rho must be >= 2, got %d", rho)
		}
		o.cfg.Rho = rho
		return nil
	}
}

// WithWalkLength overrides the per-phase target walk length (a power of
// two; default min(Θ̃(n³), 2^16) — see core.SimWalkCap).
func WithWalkLength(l int64) Option {
	return func(o *options) error {
		if l < 2 || l&(l-1) != 0 {
			return fmt.Errorf("spantree: walk length must be a power of two >= 2, got %d", l)
		}
		o.cfg.WalkLength = l
		return nil
	}
}

// WithBackend selects the matrix multiplication backend: "fast" (Õ(n^α)
// cost model, default), "semiring3d" (faithful Θ(n^(1/3))-round dataflow),
// or "naive" (Θ(n) rounds).
func WithBackend(name string) Option {
	return func(o *options) error {
		switch name {
		case "fast":
			o.cfg.Backend = mm.Fast{}
		case "semiring3d":
			o.cfg.Backend = mm.Semiring3D{}
		case "naive":
			o.cfg.Backend = mm.Naive{}
		default:
			return fmt.Errorf("spantree: unknown backend %q (want fast, semiring3d or naive)", name)
		}
		return nil
	}
}

// WithMatching selects the perfect matching sampler: "auto" (default,
// exact up to 12 positions then Metropolis), "exact", or "metropolis".
func WithMatching(name string) Option {
	return func(o *options) error {
		switch name {
		case "auto":
			o.cfg.Matching = matching.Auto{}
		case "exact":
			o.cfg.Matching = matching.Exact{}
		case "metropolis":
			o.cfg.Matching = matching.Metropolis{}
		default:
			return fmt.Errorf("spantree: unknown matching sampler %q (want auto, exact or metropolis)", name)
		}
		return nil
	}
}

// WithMaxStreamsPerGraph caps how many streams may be in flight per
// registered graph at once; Session.Stream beyond the cap fails
// synchronously with ErrStreamLimit (HTTP 429 from spantreed). Collect and
// Audit run as streams internally, so batch jobs — including spantreed's
// /v1/sample and /v1/audit — count toward the same cap; Session.Sample
// does not. 0 (the default) means unlimited. Engine-only; one-shot
// samplers ignore it.
func WithMaxStreamsPerGraph(n int) Option {
	return func(o *options) error {
		if n < 0 {
			return fmt.Errorf("spantree: max streams per graph must be >= 0, got %d", n)
		}
		o.maxStreams = n
		return nil
	}
}

// WithAdmissionQueue turns the WithMaxStreamsPerGraph cap's hard rejection
// into hold-and-wait admission: up to n requests per graph wait in a bounded
// FIFO when the graph is at its stream cap, each admitted as an active
// stream closes. ErrStreamLimit then fires only when the queue itself is
// full, or when a request's deadline (SamplerSpec.DeadlineMS) provably
// cannot be met given the measured queue wait. Queued requests produce
// byte-identical output to uncontended ones — admission delays scheduling,
// never sampling results. 0 (the default) keeps the fail-fast 429 behavior;
// meaningless without WithMaxStreamsPerGraph. Engine-only.
func WithAdmissionQueue(n int) Option {
	return func(o *options) error {
		if n < 0 {
			return fmt.Errorf("spantree: admission queue depth must be >= 0, got %d", n)
		}
		o.admitQueue = n
		return nil
	}
}

// WithTraceSampling sets how often an Engine's tracer records an unforced
// request trace: 1 in every streams (1 traces everything, 0 keeps the
// obs.DefaultSampleEvery period, negative disables unforced tracing).
// Explicitly requested traces — spantreed requests carrying an X-Request-ID
// header — are always recorded regardless. Tracing is pure observation:
// trees and Stats are byte-identical at any setting. Engine-only; one-shot
// samplers ignore it.
func WithTraceSampling(every int) Option {
	return func(o *options) error {
		o.traceEvery = every
		return nil
	}
}

// WithTraceRing sets how many recent traces the Engine retains for
// /v1/traces-style inspection (0: obs.DefaultRingCapacity). Engine-only.
func WithTraceRing(n int) Option {
	return func(o *options) error {
		if n < 0 {
			return fmt.Errorf("spantree: trace ring capacity must be >= 0, got %d", n)
		}
		o.traceRing = n
		return nil
	}
}

// WithDataDir points an Engine at a directory that persists its graph
// registry only: registrations are recorded in an on-disk manifest
// (created if missing), and an Engine started over the same directory comes
// back with the same graphs. Prepared state is not persisted — a restarted
// Engine rebuilds each graph's phase-0 state on first use (or in Warmup),
// so output bytes never depend on the directory. "" (the default) keeps
// the engine fully in-memory. Engine-only; one-shot samplers ignore it.
func WithDataDir(dir string) Option {
	return func(o *options) error {
		o.dataDir = dir
		return nil
	}
}

// WithPrecision enables the Lemma 7 fixed-point discipline: every matrix
// power is truncated down to multiples of delta.
func WithPrecision(delta float64) Option {
	return func(o *options) error {
		if delta < 0 {
			return fmt.Errorf("spantree: precision delta must be >= 0, got %g", delta)
		}
		o.cfg.TruncDelta = delta
		return nil
	}
}

// WithSegmentLength sets the per-segment walk length of SampleLowCoverTime
// (default 4·n·⌈log2 n⌉).
func WithSegmentLength(l int) Option {
	return func(o *options) error {
		if l < 1 {
			return fmt.Errorf("spantree: segment length must be >= 1, got %d", l)
		}
		o.segLen = l
		return nil
	}
}

func buildOptions(opts []Option) (*options, error) {
	o := &options{seed: 1}
	for _, opt := range opts {
		if err := opt(o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// Session is a handle to one prepared graph — the unit every sampling
// request runs against. Obtain one with Prepare (standalone) or Engine.Open
// (on a registered graph); then draw one tree with Session.Sample, or many
// with Session.Stream (results as workers finish) / Session.Collect
// (gathered, index-ordered). Sessions are safe for concurrent use and cache
// the per-graph precomputation across every request they serve.
type Session = engine.Session

// SamplerSpec is the typed description of a sampling algorithm plus its
// per-sampler knobs — what Session requests dispatch on, replacing the bare
// Sampler string constants of the PR-1 API. The zero value runs the phase
// sampler with defaults; see SpecFor and the Spec constructors below.
type SamplerSpec = engine.SamplerSpec

// StreamRequest describes a streaming sampling job for Session.Stream and
// Session.Collect: K samples of Spec seeded from SeedBase. Output at each
// index is deterministic in (graph, Spec, SeedBase) at any worker count.
type StreamRequest = engine.StreamRequest

// SampleResult is one completed draw of a Stream, tagged with its request
// index (the determinism key).
type SampleResult = engine.SampleResult

// Stream is an in-flight streaming job: Results() yields samples in
// completion order, Err() reports how the stream ended once Results()
// closes.
type Stream = engine.Stream

// SpecFor returns the SamplerSpec running the named sampler with default
// knobs.
func SpecFor(name Sampler) SamplerSpec { return engine.SpecFor(name) }

// Spec constructors for each sampler, with the knobs that apply to it.
func PhaseSpec() SamplerSpec { return SpecFor(SamplerPhase) }
func ExactSpec() SamplerSpec { return SpecFor(SamplerExact) }

// LowCoverSpec configures the Corollary 1 doubling sampler; segmentLength 0
// keeps the 4·n·⌈log2 n⌉ default.
func LowCoverSpec(segmentLength int) SamplerSpec {
	return SamplerSpec{Name: SamplerLowCover, SegmentLength: segmentLength}
}

// AldousBroderSpec configures the sequential Aldous-Broder baseline;
// maxSteps 0 keeps the DefaultMaxSteps cover-walk cap.
func AldousBroderSpec(maxSteps int) SamplerSpec {
	return SamplerSpec{Name: SamplerAldousBroder, MaxSteps: maxSteps}
}

func WilsonSpec() SamplerSpec { return SpecFor(SamplerWilson) }
func MSTSpec() SamplerSpec    { return SpecFor(SamplerMST) }

// Prepare validates g and the options once and returns a standalone Session
// over it: the handle one-shot helpers wrap, and the right entry point when
// the same graph will be sampled repeatedly without an Engine registry. The
// session takes ownership of g — don't mutate it afterwards. WithSeed is
// ignored; Session requests carry their own seeds.
func Prepare(g *Graph, opts ...Option) (*Session, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	return engine.NewSession(g, engine.Options{Config: o.cfg})
}

// sampleOneShot runs one draw of spec through an ephemeral Session, so the
// one-shot helpers and the warm Session path share a single implementation
// in internal/core.
func sampleOneShot(g *Graph, spec SamplerSpec, opts []Option) (*Tree, *Stats, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, nil, err
	}
	if spec.Name == SamplerLowCover && spec.SegmentLength == 0 {
		spec.SegmentLength = o.segLen
	}
	sess, err := engine.NewSession(g, engine.Options{Config: o.cfg})
	if err != nil {
		return nil, nil, err
	}
	return sess.Sample(context.Background(), spec, o.seed)
}

// Sample draws an approximately uniform spanning tree of g with the
// phase-based congested clique algorithm (Theorem 1). It is a thin wrapper
// over an ephemeral Session; use Prepare to amortize the per-graph
// precomputation across repeated draws.
func Sample(g *Graph, opts ...Option) (*Tree, *Stats, error) {
	return sampleOneShot(g, PhaseSpec(), opts)
}

// SampleExact draws an exactly uniform spanning tree (up to float64
// arithmetic) with the appendix's Õ(n^(2/3+α)) variant.
func SampleExact(g *Graph, opts ...Option) (*Tree, *Stats, error) {
	return sampleOneShot(g, ExactSpec(), opts)
}

// SampleLowCoverTime draws an exactly uniform spanning tree with the
// Corollary 1 sampler (load-balanced doubling walks), efficient for graphs
// with small cover times. The returned Stats reports only the fields the
// doubling sampler tracks (Rounds, Supersteps, TotalWords, WalkSteps).
func SampleLowCoverTime(g *Graph, opts ...Option) (*Tree, *Stats, error) {
	return sampleOneShot(g, LowCoverSpec(0), opts)
}

// SampleAldousBroder draws an exactly uniform spanning tree with the
// sequential Aldous-Broder cover walk (the paper's correctness baseline).
func SampleAldousBroder(g *Graph, seed uint64) (*Tree, error) {
	tree, _, err := sampleOneShot(g, AldousBroderSpec(0), []Option{WithSeed(seed)})
	return tree, err
}

// SampleWilson draws an exactly uniform spanning tree with Wilson's
// loop-erased walk algorithm.
func SampleWilson(g *Graph, seed uint64) (*Tree, error) {
	tree, _, err := sampleOneShot(g, WilsonSpec(), []Option{WithSeed(seed)})
	return tree, err
}

// SampleMSTStrawman draws a spanning tree by the §1.4 strawman: i.i.d.
// random edge weights + minimum spanning tree. Its distribution is NOT
// uniform — it exists for bias experiments.
func SampleMSTStrawman(g *Graph, seed uint64) (*Tree, error) {
	tree, _, err := sampleOneShot(g, MSTSpec(), []Option{WithSeed(seed)})
	return tree, err
}

// CountSpanningTrees returns the exact number of spanning trees of g via
// the Matrix-Tree theorem (integer edge weights required).
func CountSpanningTrees(g *Graph) (*big.Int, error) {
	return spanning.Count(g)
}

// AuditUniformity draws samples trees from sample and measures the total
// variation distance of the empirical distribution from uniform over the
// exactly counted spanning trees of g (at most 2^40 of them).
func AuditUniformity(g *Graph, samples int, sample func() (*Tree, error)) (AuditResult, error) {
	return spanning.Audit(g, samples, sample)
}

// AuditWeighted is AuditUniformity's weighted counterpart (the paper's
// footnote 1): the target distribution assigns each tree probability
// proportional to the product of its edge weights, computed by exact
// enumeration (requires at most enumLimit trees).
func AuditWeighted(g *Graph, samples, enumLimit int, sample func() (*Tree, error)) (AuditResult, error) {
	return spanning.AuditWeighted(g, samples, enumLimit, sample)
}

// TreeWeight returns the product of g's edge weights over the tree's edges
// — the unnormalized probability footnote 1 assigns the tree.
func TreeWeight(g *Graph, t *Tree) (float64, error) {
	return spanning.TreeWeight(g, t)
}

// Engine is the concurrent sampling engine: a registry of graphs with
// cached per-graph precomputation (the phase-0 power table a cold Sample
// rebuilds on every call) and a shared weighted stream scheduler
// executing streaming jobs with deterministic per-sample seed derivation
// (NewEngine's pool width and WithMaxStreamsPerGraph at the engine, Weight /
// MaxWorkers per request). Construct with NewEngine, Register graphs, then
// Open a Session per graph and Stream/Collect/Audit batches on it; see internal/engine for the full method set (Register,
// RegisterFamily, Open, TreeCount, Metrics, ...). cmd/spantreed serves this
// engine over HTTP.
type Engine = engine.Engine

// Sampler names a tree-sampling algorithm an Engine batch can run.
type Sampler = engine.Sampler

// The samplers an Engine dispatches to.
const (
	SamplerPhase        = engine.SamplerPhase
	SamplerExact        = engine.SamplerExact
	SamplerLowCover     = engine.SamplerLowCover
	SamplerAldousBroder = engine.SamplerAldousBroder
	SamplerWilson       = engine.SamplerWilson
	SamplerMST          = engine.SamplerMST
)

// BatchResult is a completed engine batch, as returned by Session.Collect.
type BatchResult = engine.BatchResult

// BatchSummary aggregates a batch's per-sample statistics.
type BatchSummary = engine.Summary

// EngineMetrics is a snapshot of an Engine's cumulative counters.
type EngineMetrics = engine.Metrics

// GraphInfo describes one graph registered in an Engine.
type GraphInfo = engine.GraphInfo

// Engine error sentinels, for errors.Is dispatch in serving layers:
// ErrUnknownGraph marks lookups of unregistered keys (HTTP 404);
// ErrUnknownSampler marks requests naming a sampler the engine doesn't know
// (HTTP 400); ErrSampleFailed marks a batch aborted by a sampler's runtime
// failure on a well-formed request (HTTP 500); ErrStreamLimit marks a stream
// rejected because its graph is at the WithMaxStreamsPerGraph cap and, with
// WithAdmissionQueue, its admission queue is full or its deadline cannot be
// met (HTTP 429); ErrSamplePanic marks a sample whose worker panicked — it
// also matches ErrSampleFailed, and the engine stays up (HTTP 500);
// ErrDeadlineExceeded marks a request that ran out of its own
// SamplerSpec.DeadlineMS budget (HTTP 504); ErrDraining marks streams
// canceled by a shutting-down server's bounded drain (HTTP 503).
var (
	ErrUnknownGraph     = engine.ErrUnknownGraph
	ErrUnknownSampler   = engine.ErrUnknownSampler
	ErrSampleFailed     = engine.ErrSampleFailed
	ErrStreamLimit      = engine.ErrStreamLimit
	ErrSamplePanic      = engine.ErrSamplePanic
	ErrDeadlineExceeded = engine.ErrDeadlineExceeded
	ErrDraining         = engine.ErrDraining
)

// Observability re-exports for serving layers built on the facade (the
// render-side helpers — Histogram, PromWriter — stay in internal/obs, which
// in-module commands import directly). A Tracer hands out request traces (Engine
// batches record into the trace carried by their context, or sample their
// own); snapshots are the JSON forms /v1/traces serves; LatencyMetrics is
// EngineMetrics.Latency; HistSnapshot is one fixed-bucket latency histogram
// with precomputed p50/p90/p99 quantiles.
type (
	Tracer         = obs.Tracer
	Trace          = obs.Trace
	TraceSnapshot  = obs.TraceSnapshot
	SpanSnapshot   = obs.SpanSnapshot
	HistSnapshot   = obs.HistSnapshot
	LatencyMetrics = engine.LatencyMetrics
)

// TraceContext returns ctx carrying tr; Engine batches run under the
// returned context record their spans into tr.
func TraceContext(ctx context.Context, tr *Trace) context.Context {
	return obs.NewContext(ctx, tr)
}

// StreamPoolMetrics reports the engine-wide stream worker pool's width and
// instantaneous utilization (EngineMetrics.StreamPool).
type StreamPoolMetrics = engine.StreamPoolMetrics

// GraphStreamMetrics reports one graph's active-stream and delivery-queue
// gauges (EngineMetrics.StreamsByGraph).
type GraphStreamMetrics = engine.GraphStreamMetrics

// QueueStats is a live snapshot of one graph's admission queue
// (Engine.QueueStats) — what spantreed's 429 responses compute Retry-After
// and the queued/queue-wait body fields from.
type QueueStats = engine.QueueStats

// NewEngine returns a batch-sampling engine. workers is the width of the
// engine-wide stream worker pool — the most samples computing at once across
// all concurrent streams, leased by weight (<= 0: GOMAXPROCS). The options configure the phase and exact samplers
// exactly as they do Sample; WithSeed is ignored — batch requests carry
// their own seed bases.
func NewEngine(workers int, opts ...Option) (*Engine, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	if o.dataDir != "" {
		if err := os.MkdirAll(o.dataDir, 0o755); err != nil {
			return nil, fmt.Errorf("spantree: data dir: %w", err)
		}
	}
	return engine.New(engine.Options{
		Workers:             workers,
		Config:              o.cfg,
		MaxStreamsPerGraph:  o.maxStreams,
		AdmissionQueueDepth: o.admitQueue,
		TraceSampleEvery:    o.traceEvery,
		TraceRing:           o.traceRing,
		DataDir:             o.dataDir,
	}), nil
}
