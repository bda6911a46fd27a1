package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	spantree "repro"
	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/mm"
	"repro/internal/prng"
	"repro/internal/schur"
)

// visitOrder is the order in which a simple random walk on g from vertex 0
// first visits each vertex. The sampler's phases visit vertices in the
// first-visit order of such a walk, so this order has the distribution of
// the one a sample followed, which its Stats do not record.
func visitOrder(g *graph.Graph, src *prng.Source) []int {
	n := g.N()
	seen := make([]bool, n)
	order := make([]int, 1, n)
	seen[0] = true
	for v := 0; len(order) < n; {
		v = g.NeighborAt(v, src.Intn(g.NeighborCount(v))).To
		if !seen[v] {
			seen[v] = true
			order = append(order, v)
		}
	}
	return order
}

// nestedSubsets rebuilds the subsets of phases 1 and later from a visit
// order and the per-phase counts of newly visited vertices in Stats: phase
// j walks on its start vertex, the last vertex visited so far, plus every
// vertex not yet visited. The subsets therefore nest and have the sample's
// phase sizes.
func nestedSubsets(order, newVertices []int) ([]*schur.Subset, error) {
	n := len(order)
	visited := 1
	var subs []*schur.Subset
	for j, nv := range newVertices {
		if j > 0 {
			sub, err := schur.NewSubset(n, order[visited-1:])
			if err != nil {
				return nil, err
			}
			subs = append(subs, sub)
		}
		visited += nv
	}
	if visited != n {
		return nil, fmt.Errorf("phases visited %d of %d vertices", visited, n)
	}
	return subs, nil
}

// algebraTimes is the time spent in each algebra layer.
type algebraTimes struct{ transition, shortcut, powers, charge time.Duration }

func (a algebraTimes) total() time.Duration {
	return a.transition + a.shortcut + a.powers + a.charge
}

func (a *algebraTimes) add(b algebraTimes) {
	a.transition += b.transition
	a.shortcut += b.shortcut
	a.powers += b.powers
	a.charge += b.charge
}

// replayAlgebra times one phase build per subset the way core builds a
// later phase: the Schur transition matrix, the shortcut matrix, the dyadic
// power table, and the round charges on a fresh simulated clique.
func replayAlgebra(g *graph.Graph, cfg core.Config, subs []*schur.Subset) (algebraTimes, error) {
	var at algebraTimes
	maxExp := walkExp(cfg)
	kw := cfg.KernelWorkers
	for _, sub := range subs {
		t := time.Now()
		smat, err := schur.TransitionWorkers(g, sub, kw)
		at.transition += time.Since(t)
		if err != nil {
			return at, err
		}
		t = time.Now()
		_, err = schur.ShortcutTransitionWorkers(g, sub, kw)
		at.shortcut += time.Since(t)
		if err != nil {
			return at, err
		}
		t = time.Now()
		pd, err := matrix.NewPowerDyadicWorkers(smat, maxExp, cfg.TruncDelta, kw)
		at.powers += time.Since(t)
		if err != nil {
			return at, err
		}
		sim := clique.MustNew(g.N())
		t = time.Now()
		err = mm.ChargeSchurShortcutBuild(sim, cfg.Backend, g.N(), maxExp)
		if err == nil {
			err = mm.ReplayDyadicTable(sim, cfg.Backend, pd)
		}
		at.charge += time.Since(t)
		if err != nil {
			return at, err
		}
	}
	return at, nil
}

// walkExp is log2 of the configured walk length: the power table's depth.
func walkExp(cfg core.Config) int { return int(math.Log2(float64(cfg.WalkLength)) + 0.5) }

// powerTableFLOP is the computed, not measured, floating-point work of a
// sample's later-phase power tables: walkExp squarings of an |S|×|S|
// matrix, 2|S|³ operations each.
func powerTableFLOP(n, maxExp int, newVertices []int) float64 {
	var total float64
	visited := 1
	for j, nv := range newVertices {
		if j > 0 {
			k := float64(n - visited + 1)
			total += float64(maxExp) * 2 * k * k * k
		}
		visited += nv
	}
	return total
}

// cpuSeconds is the harness process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// ledger accumulates the per-layer measurements of a traced run.
type ledger struct {
	trees                             int // trees of trace requests that succeeded on every HTTP path
	directWall, routerWall            time.Duration
	freshWall, replayWall, serialWall time.Duration
	directTTFT, routerTTFT            []float64
	bytes, lines                      int
	replayHits, replayLookups         int64

	sampleMs                                        []float64
	mallocs, allocBytes                             uint64
	algebra                                         algebraTimes
	phases, levels, walk, rounds, supersteps, words float64
	maxMatching, flop                               float64
}

// runTrace is the per-layer run. It times calls into each layer's public
// functions from outside the program, in three parts:
//
//   - a closed-loop load phase of a fifth of the window on the workload's
//     path, read back from the daemon's /v1/stats: slot wait, phase cache,
//     scratch pool;
//   - one sequential client replaying a seed set until the budget is spent,
//     each request in turn through a replica directly, through a router in
//     front of a second replica, through in-process Session.Collect (fresh,
//     then the same request again, labelled as replay, then with
//     max_workers 1), and tree by tree through Prepared.SampleWith;
//   - after each sample, a size-matched replay of its algebra: Schur,
//     shortcut and dyadic power table on nested subsets of its phase sizes.
func (e *env) runTrace(ctx context.Context, w workload, seed uint64) (runReport, error) {
	var rep runReport
	// The budget matches the load of an untraced run, warm-up included.
	deadline := time.Now().Add(e.warmup + e.window)
	// Per-layer times stay on the wall clock; the probe only reports how
	// far the machine ran from reference speed while they were taken.
	probe := startProbe()
	defer probe.stop()
	g, edges, err := e.inputs(w, seed)
	if err != nil {
		return rep, err
	}
	n := g.N()
	spec := spantree.SpecFor(spantree.Sampler(w.sampler))

	// Replica A takes direct traffic; the router has its own replica B, so
	// the router path never reads phase-cache entries the direct path wrote.
	direct, err := startTopology(ctx, e.hc, e.bin, false)
	if err != nil {
		return rep, err
	}
	defer direct.stop()
	routed, err := startTopology(ctx, e.hc, e.bin, true)
	if err != nil {
		return rep, err
	}
	defer routed.stop()
	for i, t := range []*topology{direct, routed} {
		if err := register(ctx, e.hc, t.front.addr, n, edges); err != nil {
			return rep, err
		}
		if r := stream(ctx, e.hc, t.front.addr, streamBody{K: 1, Sampler: w.sampler, SeedBase: seedBase(seed, w, clientSetup, i)}, g); r.err != nil {
			return rep, fmt.Errorf("first tree: %w", r.err)
		}
	}
	served := direct
	if w.router {
		served = routed
	}

	cpu0, wall0 := cpuSeconds(), time.Now()
	load := runLoad(ctx, e.hc, served.front.addr, w, g, seed, loadClients, 0, e.window/5)
	clientCPU := (cpuSeconds() - cpu0) / (time.Since(wall0).Seconds() * float64(runtime.NumCPU()))
	if ctx.Err() != nil {
		return rep, ctx.Err()
	}
	rep.attempted, rep.failed, rep.firstErr = load.attempted, load.failed, load.firstErr
	st, err := readStats(ctx, e.hc, served.serving.addr)
	if err != nil {
		return rep, err
	}

	// Prepare and restore, then two in-process sessions and a Prepared
	// whose phase caches see only their own traffic.
	cfg := core.Config{}
	prepare, restore := core.Prepare, core.RestorePrepared
	if w.sampler == "exact" {
		prepare, restore = core.PrepareExact, core.RestorePreparedExact
	}
	var prepMs, restoreMs []float64
	var prep *core.Prepared
	for i := 0; i < 3; i++ {
		t := time.Now()
		if prep, err = prepare(g, cfg); err != nil {
			return rep, err
		}
		prepMs = append(prepMs, ms(time.Since(t)))
	}
	snap, err := prep.Snapshot()
	if err != nil {
		return rep, err
	}
	for i := 0; i < 3; i++ {
		t := time.Now()
		if _, err := restore(g, cfg, snap); err != nil {
			return rep, err
		}
		restoreMs = append(restoreMs, ms(time.Since(t)))
	}
	fresh, err := inProcess(g)
	if err != nil {
		return rep, err
	}
	serial, err := inProcess(g)
	if err != nil {
		return rep, err
	}
	for _, s := range []*spantree.Session{fresh, serial} {
		if _, err := s.Collect(ctx, spantree.StreamRequest{K: 1, Spec: spec, SeedBase: seedBase(seed, w, clientSetup, 2)}); err != nil {
			return rep, err
		}
	}

	// Every arm sees the same requests, interleaved request by request so
	// drift in machine speed hits all arms alike.
	var l ledger
	var mismatch error
	for j := 0; j == 0 || time.Now().Before(deadline); j++ {
		if ctx.Err() != nil {
			return rep, ctx.Err()
		}
		sb := seedBase(seed, w, clientTrace, j)
		body := streamBody{K: w.k, Sampler: w.sampler, SeedBase: sb}
		req := spantree.StreamRequest{K: w.k, Spec: spec, SeedBase: sb}

		d := stream(ctx, e.hc, direct.front.addr, body, g)
		r := stream(ctx, e.hc, routed.front.addr, body, g)
		t := time.Now()
		want, wantErr := fresh.Collect(ctx, req)
		freshWall := time.Since(t)
		for _, hr := range []*streamResult{d, r} {
			rep.attempted++
			switch {
			case hr.err != nil:
				rep.failed++
				if rep.firstErr == nil {
					rep.firstErr = hr.err
				}
				if (hr.wrong || wantErr == nil) && mismatch == nil {
					mismatch = fmt.Errorf("trace request %d: over HTTP: %v; in process: %v", j, hr.err, wantErr)
				}
			case wantErr != nil:
				if mismatch == nil {
					mismatch = fmt.Errorf("trace request %d: in process: %v; over HTTP it succeeded", j, wantErr)
				}
			default:
				for i := range hr.trees {
					if hr.trees[i] != want.Trees[i].Encode() && mismatch == nil {
						mismatch = fmt.Errorf("trace request %d index %d: HTTP tree differs from in-process Session.Collect", j, i)
					}
				}
			}
		}
		if wantErr != nil || d.err != nil || r.err != nil {
			// The sampler failed on this seed base; the other arms would
			// fail alike, so the request is left out of the ledger.
			continue
		}
		l.freshWall += freshWall
		l.directWall += d.total()
		l.routerWall += r.total()
		l.directTTFT = append(l.directTTFT, ms(d.ttft()))
		l.routerTTFT = append(l.routerTTFT, ms(r.ttft()))
		l.bytes += d.bytes
		l.lines += d.lines
		l.trees += w.k

		pc0 := fresh.Engine().Metrics().PhaseCache
		t = time.Now()
		if _, err := fresh.Collect(ctx, req); err != nil {
			return rep, err
		}
		l.replayWall += time.Since(t)
		pc1 := fresh.Engine().Metrics().PhaseCache
		l.replayHits += pc1.Hits - pc0.Hits
		l.replayLookups += pc1.Hits + pc1.Misses - pc0.Hits - pc0.Misses
		one := req
		one.Spec.MaxWorkers = 1
		t = time.Now()
		if _, err := serial.Collect(ctx, one); err != nil {
			return rep, err
		}
		l.serialWall += time.Since(t)

		for i := 0; i < w.k; i++ {
			tree, err := l.sample(prep, g, prng.New(sb).Split(uint64(i)))
			if err != nil {
				return rep, err
			}
			if tree != want.Trees[i].Encode() && mismatch == nil {
				mismatch = fmt.Errorf("trace request %d index %d: Prepared.SampleWith differs from Session.Collect", j, i)
			}
		}
	}
	if l.trees == 0 {
		return rep, fmt.Errorf("no trace request succeeded: %v", rep.firstErr)
	}

	end, err := readStats(ctx, e.hc, served.front.addr)
	if err != nil {
		return rep, err
	}
	routerMetrics, err := getBody(ctx, e.hc, routed.front.addr, "/metrics")
	if err != nil {
		return rep, err
	}

	slowdown := probe.stop().slowdown(probe.start, time.Now())
	nt := float64(l.trees)
	ns := float64(len(l.sampleMs))
	sampleMean := mean(l.sampleMs)
	sw := st.Engine.Latency.SchedulerWait
	pc := st.Engine.PhaseCache
	pool := st.Engine.MatrixPool
	rep.metrics = []metric{
		{name: "spantreed.ms_per_tree", value: ms(l.directWall) / nt, unit: "ms", samples: l.trees},
		{name: "spantreed.overhead_ms_per_tree", value: ms(l.directWall-l.freshWall) / nt, unit: "ms", samples: l.trees},
		{name: "spantreed.bytes_per_line", value: float64(l.bytes) / float64(l.lines), unit: "bytes", samples: l.lines},
		{name: "spantreed.request_errors", value: float64(end.RequestErrors), unit: "count"},
		{name: "router.hop_ms_per_tree", value: ms(l.routerWall-l.directWall) / nt, unit: "ms", samples: l.trees},
		{name: "router.ttft_hop_ms", value: median(l.routerTTFT) - median(l.directTTFT), unit: "ms", samples: len(l.routerTTFT)},
		{name: "router.retries_total", value: promSum(string(routerMetrics), "spantreed_router_failovers_total", "spantreed_router_retries_total", "spantreed_router_hedges_total"), unit: "count"},
		{name: "engine.ms_per_tree", value: ms(l.freshWall) / nt, unit: "ms", samples: l.trees},
		{name: "engine.overhead_ms_per_tree", value: ms(l.serialWall)/nt - sampleMean, unit: "ms", samples: l.trees},
		{name: "engine.slot_wait_ms_mean", value: sw.SumSeconds * 1e3 / math.Max(float64(sw.Count), 1), unit: "ms", samples: int(sw.Count)},
		{name: "engine.slot_wait_ms_p90", value: sw.P90 * 1e3, unit: "ms", samples: int(sw.Count), q: 0.9},
		{name: "phasecache.hit_ratio", value: ratio(pc.Hits, pc.Hits+pc.Misses), unit: "ratio", samples: int(pc.Hits + pc.Misses)},
		{name: "phasecache.resident_mb", value: float64(pc.Bytes) / (1 << 20), unit: "MB"},
		{name: "phasecache.replay_hit_ratio", value: ratio(l.replayHits, l.replayLookups), unit: "ratio", samples: int(l.replayLookups)},
		{name: "engine.replay_ms_per_tree", value: ms(l.replayWall) / nt, unit: "ms", samples: l.trees},
		{name: "core.prepare_ms", value: median(prepMs), unit: "ms", samples: len(prepMs)},
		{name: "core.restore_ms", value: median(restoreMs), unit: "ms", samples: len(restoreMs)},
		{name: "core.snapshot_kb", value: float64(len(snap)) / 1024, unit: "KB"},
		{name: "core.sample_ms_mean", value: sampleMean, unit: "ms", samples: len(l.sampleMs)},
		{name: "core.sample_ms_p50", value: quantile(l.sampleMs, 0.5), unit: "ms", samples: len(l.sampleMs), q: 0.5},
		{name: "core.sample_ms_p90", value: quantile(l.sampleMs, 0.9), unit: "ms", samples: len(l.sampleMs), q: 0.9},
		{name: "core.allocs_per_tree", value: float64(l.mallocs) / ns, unit: "count"},
		{name: "core.alloc_kb_per_tree", value: float64(l.allocBytes) / 1024 / ns, unit: "KB"},
		{name: "core.phases_per_tree", value: l.phases / ns, unit: "count"},
		{name: "core.levels_per_tree", value: l.levels / ns, unit: "count"},
		{name: "core.walk_steps_per_tree", value: l.walk / ns, unit: "count"},
		{name: "core.max_matching_size", value: l.maxMatching, unit: "count"},
		{name: "schur.transition_ms_per_tree", value: ms(l.algebra.transition) / ns, unit: "ms", samples: len(l.sampleMs)},
		{name: "schur.shortcut_ms_per_tree", value: ms(l.algebra.shortcut) / ns, unit: "ms", samples: len(l.sampleMs)},
		{name: "matrix.power_table_ms_per_tree", value: ms(l.algebra.powers) / ns, unit: "ms", samples: len(l.sampleMs)},
		{name: "matrix.power_table_gflop_per_tree", value: l.flop / 1e9 / ns, unit: "GFLOP"},
		{name: "mm.charge_ms_per_tree", value: ms(l.algebra.charge) / ns, unit: "ms", samples: len(l.sampleMs)},
		{name: "core.protocol_ms_per_tree", value: sampleMean - ms(l.algebra.total())/ns, unit: "ms", samples: len(l.sampleMs)},
		{name: "clique.rounds_per_tree", value: l.rounds / ns, unit: "rounds"},
		{name: "clique.supersteps_per_tree", value: l.supersteps / ns, unit: "count"},
		{name: "clique.words_per_tree", value: l.words / ns, unit: "words"},
		{name: "matrix.pool_reuse_ratio", value: ratio(pool.Reuses, pool.Gets), unit: "ratio", samples: int(pool.Gets)},
		{name: "bench.client_cpu_frac", value: clientCPU, unit: "ratio"},
		{name: "bench.machine_slowdown", value: slowdown, unit: "ratio"},
	}
	rep.correct = load.wrong == 0 && mismatch == nil
	if mismatch != nil && rep.firstErr == nil {
		rep.firstErr = mismatch
	}
	return rep, nil
}

// sample draws one tree with Prepared.SampleWith, records its time,
// allocations and Stats, and replays its algebra on size-matched subsets.
// It returns the encoded tree.
func (l *ledger) sample(prep *core.Prepared, g *graph.Graph, src *prng.Source) (string, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	tree, st, err := prep.SampleWith(src, core.SampleOpts{})
	el := time.Since(t)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return "", err
	}
	cfg := prep.Config()
	l.sampleMs = append(l.sampleMs, ms(el))
	l.mallocs += m1.Mallocs - m0.Mallocs
	l.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	l.phases += float64(st.Phases)
	l.levels += float64(st.Levels)
	l.walk += float64(st.WalkSteps)
	l.rounds += float64(st.Rounds)
	l.supersteps += float64(st.Supersteps)
	l.words += float64(st.TotalWords)
	l.maxMatching = math.Max(l.maxMatching, float64(st.MaxMatchingSize))
	l.flop += powerTableFLOP(g.N(), walkExp(cfg), st.NewVertices)

	// The visit order draws from a stream of its own, apart from the ones
	// the sampler splits off src.
	subs, err := nestedSubsets(visitOrder(g, src.Split(1<<32)), st.NewVertices)
	if err != nil {
		return "", err
	}
	at, err := replayAlgebra(g, cfg, subs)
	if err != nil {
		return "", err
	}
	l.algebra.add(at)
	return tree.Encode(), nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
