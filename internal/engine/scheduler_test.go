package engine

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestSchedulerWeightedGrants drives the raw scheduler with two
// always-demanding leases on a single slot and counts grants: stride
// scheduling must split them close to the 3:1 weight ratio. Each lease runs
// two workers so that at every release BOTH leases have a registered waiter
// — the contended regime where weights decide.
func TestSchedulerWeightedGrants(t *testing.T) {
	s := newScheduler(1, 0, 0)
	heavy, err := s.open(context.Background(), "g", 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	light, err := s.open(context.Background(), "g", 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	const total = 240
	var heavyGrants, lightGrants atomic.Int64
	granted := make(chan struct{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, l := range []*streamLease{heavy, light} {
		counter := &heavyGrants
		if l == light {
			counter = &lightGrants
		}
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(l *streamLease, counter *atomic.Int64) {
				defer wg.Done()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				go func() { <-stop; cancel() }()
				for {
					if err := l.acquire(ctx); err != nil {
						return
					}
					counter.Add(1)
					select {
					case granted <- struct{}{}:
					case <-stop:
						l.release()
						return
					}
					l.release()
				}
			}(l, counter)
		}
	}
	// Wait until every worker has registered demand with the scheduler (one
	// holds the slot, three park in acquire) before counting: without this,
	// the first pair of goroutines scheduled can ping-pong through the whole
	// run before the other lease's workers ever express demand — stride
	// fairness only arbitrates between streams that are actually waiting.
	for {
		s.mu.Lock()
		demand := heavy.want + heavy.granted + light.want + light.granted
		s.mu.Unlock()
		if demand == 4 {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	for i := 0; i < total; i++ {
		<-granted
	}
	close(stop)
	wg.Wait()
	heavy.close()
	light.close()

	h, l := heavyGrants.Load(), lightGrants.Load()
	if h+l < total {
		t.Fatalf("only %d grants recorded, want >= %d", h+l, total)
	}
	ratio := float64(h) / float64(l)
	if ratio < 2.0 || ratio > 4.5 {
		t.Errorf("grant ratio %.2f (heavy %d, light %d), want ~3.0 for weights 3:1", ratio, h, l)
	}
	if pool, _ := s.snapshot(); pool.ActiveStreams != 0 || pool.SlotsInUse != 0 {
		t.Errorf("scheduler not drained after close: %+v", pool)
	}
}

// TestStreamFairnessSlowConsumer is the acceptance criterion of the shared
// scheduler: with two concurrent equal-weight streams on a 4-slot pool, one
// consumer stalling on every line, the fast stream must still complete in
// <= 1.5x its solo wall-clock — the slow stream's slots are yielded, not
// pinned — and both streams' per-index trees must be byte-identical to the
// single-stream golden output. The wall-clock comparison takes the best of a
// few interleaved solo and contended runs, so a burst of load from elsewhere
// on the machine during one measurement does not decide the outcome.
func TestStreamFairnessSlowConsumer(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock fairness test")
	}
	const (
		k          = 64
		sampleCost = 5 * time.Millisecond
		slowEvery  = 30 * time.Millisecond
		trials     = 3
	)
	newEng := func() (*Engine, *Session) {
		e := New(Options{Config: core.Config{WalkLength: 256}, StreamWorkers: 4})
		if err := e.RegisterFamily("g", "expander", 16, 3); err != nil {
			t.Fatal(err)
		}
		e.sampleHook = func() { time.Sleep(sampleCost) }
		sess, err := e.Open("g")
		if err != nil {
			t.Fatal(err)
		}
		return e, sess
	}
	req := func(seedBase uint64) StreamRequest {
		return StreamRequest{K: k, Spec: SpecFor(SamplerWilson), SeedBase: seedBase}
	}
	consume := func(st *Stream, delay time.Duration) ([]string, time.Duration) {
		start := time.Now()
		trees := make([]string, k)
		for r := range st.Results() {
			trees[r.Index] = r.Tree.Encode()
			if delay > 0 {
				time.Sleep(delay)
			}
		}
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
		return trees, time.Since(start)
	}

	var golden []string
	soloElapsed, fastElapsed := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for trial := 0; trial < trials; trial++ {
		// Golden + solo baseline on a fresh engine.
		_, solo := newEng()
		st, err := solo.Stream(context.Background(), req(9))
		if err != nil {
			t.Fatal(err)
		}
		soloTrees, elapsed := consume(st, 0)
		soloElapsed = min(soloElapsed, elapsed)
		if golden == nil {
			golden = soloTrees
		} else if !reflect.DeepEqual(soloTrees, golden) {
			t.Errorf("trial %d: solo stream trees differ from the first solo run", trial)
		}

		// Concurrent run on a fresh engine: a slow consumer (delayed every
		// line) and a fast consumer at equal weights.
		_, sess := newEng()
		slowSt, err := sess.Stream(context.Background(), req(9))
		if err != nil {
			t.Fatal(err)
		}
		var slowTrees []string
		var slowDone atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			slowTrees, _ = consume(slowSt, slowEvery)
			slowDone.Store(true)
		}()
		// Give the slow stream a head start so its lease is active and
		// holding slots when the fast stream arrives.
		time.Sleep(2 * sampleCost)
		fastSt, err := sess.Stream(context.Background(), req(9))
		if err != nil {
			t.Fatal(err)
		}
		fastTrees, elapsed := consume(fastSt, 0)
		fastElapsed = min(fastElapsed, elapsed)
		if slowDone.Load() {
			t.Errorf("trial %d: slow stream finished before the fast stream; the test exercised no contention", trial)
		}
		wg.Wait()

		if !reflect.DeepEqual(fastTrees, golden) {
			t.Errorf("trial %d: fast stream trees differ from solo golden output", trial)
		}
		if !reflect.DeepEqual(slowTrees, golden) {
			t.Errorf("trial %d: slow stream trees differ from solo golden output", trial)
		}
	}
	// The slow consumer needs k*slowEvery ~ 2s to drain; the fast stream's
	// compute is ~k*sampleCost/slots ~ 80ms. If the slow stream pinned its
	// slots instead of yielding them, the fast stream would be serialized
	// behind it and blow well past the 1.5x budget in every trial.
	if limit := soloElapsed + soloElapsed/2; fastElapsed > limit {
		t.Errorf("fast stream took %v alongside a slow consumer, want <= 1.5x solo (%v, limit %v)",
			fastElapsed, soloElapsed, limit)
	}
}

// TestStreamGoldenAcrossWeightsAndWorkers pins the determinism invariant
// through the scheduler: per-index output must be byte-identical to the
// 1-worker baseline at every (weight, max workers, consumption order)
// combination, including while a competing stream churns the pool.
func TestStreamGoldenAcrossWeightsAndWorkers(t *testing.T) {
	e := testEngine(t)
	sess, err := e.Open("g")
	if err != nil {
		t.Fatal(err)
	}
	const k = 12
	baseline, err := sess.Collect(context.Background(), StreamRequest{
		K: k, Spec: SamplerSpec{Name: SamplerPhase, MaxWorkers: 1}, SeedBase: 9,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A competing stream churns scheduler state for the whole test.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bg, err := sess.Stream(ctx, StreamRequest{K: maxBatchSize - 1, Spec: SpecFor(SamplerWilson), SeedBase: 1})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range bg.Results() {
		}
	}()

	for _, weight := range []float64{0.5, 1, 4} {
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			for _, slow := range []bool{false, true} {
				st, err := sess.Stream(context.Background(), StreamRequest{
					K:        k,
					Spec:     SamplerSpec{Name: SamplerPhase, Weight: weight, MaxWorkers: workers},
					SeedBase: 9,
				})
				if err != nil {
					t.Fatalf("w=%g mw=%d: %v", weight, workers, err)
				}
				trees := make([]string, k)
				stats := make([]core.Stats, k)
				n := 0
				for r := range st.Results() {
					trees[r.Index] = r.Tree.Encode()
					stats[r.Index] = r.Stats
					if n++; slow && n%3 == 0 {
						// A deliberately jerky consumer varies delivery order
						// and backpressure without changing what's computed.
						time.Sleep(time.Millisecond)
					}
				}
				if err := st.Err(); err != nil {
					t.Fatalf("w=%g mw=%d slow=%v: %v", weight, workers, slow, err)
				}
				if !reflect.DeepEqual(trees, encodeAll(baseline)) {
					t.Errorf("w=%g mw=%d slow=%v: trees differ from baseline", weight, workers, slow)
				}
				if !reflect.DeepEqual(stats, baseline.Stats) {
					t.Errorf("w=%g mw=%d slow=%v: stats differ from baseline", weight, workers, slow)
				}
			}
		}
	}
	cancel()
	bg.Err() // wait the background stream out so close() accounting is exercised
}

// TestMaxStreamsPerGraph covers the admission cap: the configured number of
// concurrent streams per graph is honored, the excess request fails
// synchronously with ErrStreamLimit, other graphs are unaffected, and the
// slot frees once a stream ends.
func TestMaxStreamsPerGraph(t *testing.T) {
	e := New(Options{Config: core.Config{WalkLength: 256}, MaxStreamsPerGraph: 1})
	for _, key := range []string{"a", "b"} {
		if err := e.RegisterFamily(key, "cycle", 8, 1); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := e.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Hold the first stream open by not consuming it (its buffer fills and
	// it parks), then try a second on the same graph.
	// MaxWorkers 2 keeps the delivery buffer (2x cap) far below K, so the
	// unconsumed stream parks mid-batch instead of completing.
	held, err := sess.Stream(ctx, StreamRequest{K: 64, Spec: SamplerSpec{Name: SamplerWilson, MaxWorkers: 2}, SeedBase: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Stream(context.Background(), StreamRequest{K: 1, Spec: SpecFor(SamplerWilson), SeedBase: 2}); !errors.Is(err, ErrStreamLimit) {
		t.Errorf("second stream on capped graph: err = %v, want ErrStreamLimit", err)
	}
	// A different graph has its own budget.
	other, err := e.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Collect(context.Background(), StreamRequest{K: 2, Spec: SpecFor(SamplerWilson), SeedBase: 1}); err != nil {
		t.Errorf("stream on uncapped graph rejected: %v", err)
	}
	// Ending the held stream frees the slot.
	cancel()
	for range held.Results() {
	}
	if _, err := sess.Collect(context.Background(), StreamRequest{K: 2, Spec: SpecFor(SamplerWilson), SeedBase: 3}); err != nil {
		t.Errorf("stream after cap freed: %v", err)
	}
}

// TestStreamMetricsGauges covers the stream_pool / streams_by_graph gauges:
// an in-flight stream shows up under its graph key with leased slots, a
// stalled consumer surfaces as queue depth, and everything returns to zero
// once streams end.
func TestStreamMetricsGauges(t *testing.T) {
	e := testEngine(t)
	gate := make(chan struct{})
	e.sampleHook = func() { <-gate }
	sess, err := e.Open("g")
	if err != nil {
		t.Fatal(err)
	}
	st, err := sess.Stream(context.Background(), StreamRequest{
		K: 8, Spec: SamplerSpec{Name: SamplerWilson, MaxWorkers: 2}, SeedBase: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	waitFor := func(desc string, ok func(Metrics) bool) Metrics {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			m := e.Metrics()
			if ok(m) {
				return m
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; metrics %+v", desc, m)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	m := waitFor("slots leased to the gated stream", func(m Metrics) bool {
		return m.StreamsByGraph["g"].SlotsInUse >= 1
	})
	if m.StreamPool.Workers != e.StreamWorkers() || m.StreamPool.ActiveStreams != 1 {
		t.Errorf("pool gauges: %+v", m.StreamPool)
	}
	if g := m.StreamsByGraph["g"]; g.ActiveStreams != 1 || g.SlotsInUse > 2 {
		t.Errorf("per-graph gauges: %+v", g)
	}

	// Unblock sampling but do not consume: computed results pile into the
	// stream's bounded buffer and must surface as queue depth.
	close(gate)
	waitFor("queue depth from the unconsumed buffer", func(m Metrics) bool {
		return m.StreamsByGraph["g"].QueueDepth >= 1
	})

	for range st.Results() {
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	m = e.Metrics()
	if m.StreamPool.ActiveStreams != 0 || m.StreamPool.SlotsInUse != 0 || len(m.StreamsByGraph) != 0 {
		t.Errorf("gauges not zero after stream end: pool %+v, by-graph %+v", m.StreamPool, m.StreamsByGraph)
	}
}

// TestSchedulerSpecValidation rejects malformed scheduling knobs.
func TestSchedulerSpecValidation(t *testing.T) {
	for _, spec := range []SamplerSpec{
		{Weight: -1},
		{Weight: math.NaN()},
		{Weight: math.Inf(1)},
		{MaxWorkers: -2},
	} {
		if err := spec.Validate(); err == nil {
			t.Errorf("spec %+v validated", spec)
		}
	}
	// Scheduling knobs are sampler-independent: valid on every sampler.
	for _, s := range Samplers() {
		spec := SamplerSpec{Name: s, Weight: 2.5, MaxWorkers: 3}
		if err := spec.Validate(); err != nil {
			t.Errorf("scheduling knobs rejected on %q: %v", s, err)
		}
	}
}
