// Package engine is the concurrent sampling engine behind the
// spantree.Engine API and the spantreed server: a registry of graphs keyed
// by name with cached, immutable per-graph precomputation (core.Prepared
// state, spanning tree counts), a Session handle per prepared graph whose
// typed SamplerSpec requests run on an engine-wide weighted stream
// scheduler (Session.Stream / Session.Collect / Session.Sample), and an
// aggregation layer folding per-sample Stats into batch summaries.
//
// The engine exists because tree sampling is a repeated-query primitive:
// sparsification, random-walk estimation, and uniformity audits all draw
// many trees from the same graph, so the per-graph work (adjacency
// normalization, transition tables, the phase-0 dyadic power table that
// dominates a run's numeric cost) is paid once per graph and shared —
// read-only — by every concurrent sample thereafter. One build serves both
// Theorem 1 samplers: the exact sampler's prepared state reads the phase
// sampler's table.
//
// # Persistence
//
// With Options.DataDir the registry itself persists: registrations are
// written to a versioned JSON manifest (persist.go) and rehydrated at
// construction, each record checked against its graph digest. Prepared
// state is never persisted; a restarted engine rebuilds it cold, for both
// the phase and the exact sampler, on a graph's first request or in
// Warmup, so output bytes never depend on the data dir.
//
// # Scheduling
//
// All concurrent streams share ONE worker pool (Options.Workers slots).
// Slots are leased to streams by stride scheduling on
// SamplerSpec.Weight — over any contended interval a stream's slot grants
// are proportional to its weight, capped by its SamplerSpec.MaxWorkers —
// and a slot covers computation only: workers return it before delivering
// into the stream's bounded result buffer, so a stream whose consumer
// stalls self-throttles on its buffer while its slots flow to streams that
// are still consuming. Options.MaxStreamsPerGraph bounds concurrent streams
// per graph (ErrStreamLimit, HTTP 429); see scheduler.go for the mechanism
// and Metrics.StreamPool / Metrics.StreamsByGraph for the gauges.
//
// # Determinism obligations
//
// Determinism is a hard contract: sample i of a batch uses a randomness
// stream derived solely from (seed base, i) — prng.New(base).Split(i) —
// never from scheduling, so a batch's output is byte-identical whether it
// runs on one worker or many, at any stream weight, worker cap, pool width,
// or consumption order. The scheduler may reorder only wall-clock
// completion (and hence Stream delivery order); the tree and Stats at every
// index are a pure function of (graph, SamplerSpec sampling knobs,
// SeedBase, index). Tests pin this golden contract across 1/4/GOMAXPROCS
// workers and across weights; any change to dispatch, caching, or
// scheduling must preserve it.
package engine
