package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/graph"
)

// runReport is the outcome of one run of one workload.
type runReport struct {
	metrics   []metric
	attempted int
	failed    int
	correct   bool
	firstErr  error
	// Set by the end-to-end run: the machine's median slowdown against
	// the reference speed during the window, and the window's throughput
	// on the wall clock.
	slowdown, rawTreesPerS float64
}

// inputs generates the workload's graph from the seed: the edge list sent
// to the daemon, and the graph rebuilt from it the way the daemon does.
func (e *env) inputs(w workload, seed uint64) (*graph.Graph, [][2]int, error) {
	g0, err := makeGraph(seed, e.size(w))
	if err != nil {
		return nil, nil, err
	}
	edges := wireEdges(g0)
	g, err := graphFromWire(g0.N(), edges)
	return g, edges, err
}

// interval is a span of wall-clock time, timed on the reference clock once
// the run is over.
type interval struct{ start, end time.Time }

// coldBoot starts the workload's topology from nothing and times exec to
// /readyz, registration, and the first tree line of a k=1 request.
func (e *env) coldBoot(ctx context.Context, w workload, g *graph.Graph, edges [][2]int, sb uint64) (*topology, interval, error) {
	start := time.Now()
	topo, err := startTopology(ctx, e.hc, e.bin, w.router)
	if err != nil {
		return nil, interval{}, err
	}
	if err := register(ctx, e.hc, topo.front.addr, g.N(), edges); err != nil {
		topo.stop()
		return nil, interval{}, err
	}
	res := stream(ctx, e.hc, topo.front.addr, streamBody{K: 1, Sampler: w.sampler, SeedBase: sb}, g)
	if res.err != nil {
		topo.stop()
		return nil, interval{}, fmt.Errorf("first tree after boot: %w", res.err)
	}
	return topo, interval{start, res.arrivals[0]}, nil
}

// runEndToEnd is the untraced run: cold boots for setup_s, a closed-loop
// warm-up and timed window on the last of them, the fixed verification
// set, and the rest of the cold boots. A speed probe runs throughout, and
// every timing is read off its reference clock.
func (e *env) runEndToEnd(ctx context.Context, w workload, seed uint64) (runReport, error) {
	var rep runReport
	g, edges, err := e.inputs(w, seed)
	if err != nil {
		return rep, err
	}
	probe := startProbe()
	defer probe.stop()
	var topo *topology
	defer func() {
		if topo != nil {
			topo.stop()
		}
	}()
	// The cold boots are split between the start and the end of the run,
	// so a burst of machine noise at one moment does not move them all.
	boots := make([]interval, 0, e.boots)
	boot := func() error {
		if topo != nil {
			topo.stop()
		}
		b := len(boots)
		t, span, err := e.coldBoot(ctx, w, g, edges, seedBase(seed, w, clientSetup, b))
		topo = t
		if err != nil {
			return fmt.Errorf("cold boot %d: %w", b, err)
		}
		boots = append(boots, span)
		return nil
	}
	for len(boots) < (e.boots+1)/2 {
		if err := boot(); err != nil {
			return rep, err
		}
	}

	load := runLoad(ctx, e.hc, topo.front.addr, w, g, seed, loadClients, e.warmup, e.window)
	if ctx.Err() != nil {
		return rep, ctx.Err()
	}
	if len(load.timed) == 0 {
		return rep, fmt.Errorf("no request completed inside the %v window (first error: %v)", e.window, load.firstErr)
	}
	rep.rawTreesPerS = float64(len(load.arrivals)) / load.winEnd.Sub(load.winStart).Seconds()
	rss, err := topo.peakRSSMB()
	if err != nil {
		return rep, err
	}

	addrs := []string{topo.front.addr}
	if w.router {
		addrs = append(addrs, topo.serving.addr)
	}
	ver, err := verify(ctx, e.hc, addrs, w, g, seed)
	if err != nil {
		return rep, err
	}
	if len(ver.rounds) == 0 {
		return rep, fmt.Errorf("no verification request succeeded: %v", ver.firstErr)
	}
	for len(boots) < e.boots {
		if err := boot(); err != nil {
			return rep, err
		}
	}

	clock := probe.stop()
	rep.slowdown = clock.slowdown(load.winStart, load.winEnd)
	var ttft, gaps, total []time.Duration
	for _, r := range load.timed {
		ttft = append(ttft, clock.dur(r.sent, r.arrivals[0]))
		total = append(total, clock.dur(r.sent, r.end))
		for i := 1; i < len(r.arrivals); i++ {
			gaps = append(gaps, clock.dur(r.arrivals[i-1], r.arrivals[i]))
		}
	}
	setup := make([]float64, len(boots))
	for i, b := range boots {
		setup[i] = clock.dur(b.start, b.end).Seconds()
	}
	var roundSum float64
	for _, r := range ver.rounds {
		roundSum += float64(r)
	}
	rep.attempted = load.attempted + ver.attempted
	rep.failed = load.failed + ver.failed
	rep.metrics = []metric{
		{name: "trees_per_s", value: median(load.sliceRates(clock)), unit: "1/s", samples: len(load.arrivals)},
		percentileMetric("ttft_ms_p50", ttft, 0.5),
		percentileMetric("ttft_ms_p90", ttft, 0.9),
		percentileMetric("gap_ms_p50", gaps, 0.5),
		percentileMetric("gap_ms_p90", gaps, 0.9),
		percentileMetric("request_ms_p50", total, 0.5),
		percentileMetric("request_ms_p90", total, 0.9),
		{name: "setup_s", value: median(setup), unit: "s", samples: len(setup)},
		{name: "peak_rss_mb", value: rss, unit: "MB"},
		{name: "sim_rounds_per_tree", value: roundSum / float64(len(ver.rounds)), unit: "rounds", samples: len(ver.rounds)},
		// The share of requests that succeed rather than failed_frac, which
		// is 0 when nothing fails and so has no relative bound.
		{name: "success_frac", value: 1 - float64(rep.failed)/float64(rep.attempted), unit: "ratio", samples: rep.attempted},
	}
	rep.firstErr = load.firstErr
	if rep.firstErr == nil {
		rep.firstErr = ver.firstErr
	}
	rep.correct = load.wrong == 0 && ver.mismatches == 0
	return rep, nil
}
