// Package obs is the engine's observability layer: allocation-lean
// structured tracing (Tracer/Trace/Span), fixed-bucket latency histograms
// (Histogram), and a zero-dependency Prometheus text-exposition writer
// (PromWriter) plus validator (ValidateExposition).
//
// The package is deliberately leaf-level — it imports nothing from this
// repository, so every layer (clique, core, engine, spantreed)
// can thread observation through without import cycles.
//
// The load-bearing contract is one-way flow: observation NEVER feeds back
// into sampling. Spans and histogram observations read clocks and counters,
// but nothing in the sampling path ever branches on them — the tree and
// Stats at index i remain a pure function of (graph, sampler spec, seed
// base, i) whether tracing is on, off, sampled in, or sampled out. Tracing
// knobs therefore join Weight and MaxWorkers in the set of output-neutral
// configuration. To keep that contract auditable,
// every Span entry point is nil-safe on its zero value: untraced runs pay
// one pointer check per instrumentation site and allocate nothing.
package obs
