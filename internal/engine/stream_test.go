package engine

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/doubling"
	"repro/internal/graph"
)

// TestStreamGoldenDeterminism is the Session API's golden contract: a Stream
// reassembled by index is byte-identical to a single-worker Collect — trees
// and stats — across 1, 4, and GOMAXPROCS workers, even though stream
// results arrive in completion order.
func TestStreamGoldenDeterminism(t *testing.T) {
	e := testEngine(t)
	for _, sampler := range []Sampler{SamplerPhase, SamplerWilson} {
		sess, err := e.Open("g")
		if err != nil {
			t.Fatal(err)
		}
		baseline, err := sess.Collect(context.Background(), StreamRequest{
			K: 12, Spec: SamplerSpec{Name: sampler, MaxWorkers: 1}, SeedBase: 9,
		})
		if err != nil {
			t.Fatalf("%s baseline: %v", sampler, err)
		}
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			st, err := sess.Stream(context.Background(), StreamRequest{
				K: 12, Spec: SamplerSpec{Name: sampler, MaxWorkers: workers}, SeedBase: 9,
			})
			if err != nil {
				t.Fatalf("%s stream w=%d: %v", sampler, workers, err)
			}
			trees := make([]string, 12)
			stats := make([]core.Stats, 12)
			got := 0
			for r := range st.Results() {
				trees[r.Index] = r.Tree.Encode()
				stats[r.Index] = r.Stats
				got++
			}
			if err := st.Err(); err != nil {
				t.Fatalf("%s stream w=%d: %v", sampler, workers, err)
			}
			if got != 12 {
				t.Fatalf("%s stream w=%d delivered %d of 12", sampler, workers, got)
			}
			if !reflect.DeepEqual(trees, encodeAll(baseline)) {
				t.Errorf("%s w=%d: stream trees differ from single-worker collect", sampler, workers)
			}
			if !reflect.DeepEqual(stats, baseline.Stats) {
				t.Errorf("%s w=%d: stream stats differ from single-worker collect", sampler, workers)
			}
		}
	}
}

// TestStreamCancellation is the cancellation acceptance criterion: with a
// deliberately slow sampler, cancelling an in-flight Stream's context closes
// the results channel promptly, reports ctx.Err() through Stream.Err, stops
// dispatching new samples (well under K complete), bumps the aborted
// counter, and leaves the engine fully reusable.
func TestStreamCancellation(t *testing.T) {
	e := testEngine(t)
	e.sampleHook = func() { time.Sleep(2 * time.Millisecond) }
	sess, err := e.Open("g")
	if err != nil {
		t.Fatal(err)
	}
	const k = 1000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := sess.Stream(ctx, StreamRequest{K: k, Spec: SamplerSpec{Name: SamplerWilson, MaxWorkers: 4}, SeedBase: 1})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for range st.Results() {
		delivered++
		if delivered == 4 {
			cancel()
			break
		}
	}
	// The channel must close promptly: only in-flight samples may finish.
	drainDone := make(chan int)
	go func() {
		extra := 0
		for range st.Results() {
			extra++
		}
		drainDone <- extra
	}()
	select {
	case extra := <-drainDone:
		delivered += extra
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not close within 5s of cancellation")
	}
	if err := st.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err() = %v, want ctx.Err() (context.Canceled)", err)
	}
	if delivered >= k/2 {
		t.Errorf("cancellation did not stop dispatch: %d of %d samples completed", delivered, k)
	}
	m := e.Metrics()
	if m.Aborted < 1 {
		t.Errorf("aborted counter not bumped: %+v", m)
	}
	if m.Samples >= k {
		t.Errorf("samples counter shows a full run: %+v", m)
	}

	// The engine must remain reusable after the abort.
	e.sampleHook = nil
	res, err := sess.Collect(context.Background(), StreamRequest{K: 4, Spec: SpecFor(SamplerWilson), SeedBase: 2})
	if err != nil {
		t.Fatalf("engine not reusable after canceled stream: %v", err)
	}
	if res.Summary.Samples != 4 {
		t.Errorf("post-abort batch incomplete: %+v", res.Summary)
	}
}

// TestStreamSamplerError aborts the stream on the first sampler failure and
// wraps it in ErrSampleFailed.
func TestStreamSamplerError(t *testing.T) {
	e := testEngine(t)
	sess, err := e.Open("g")
	if err != nil {
		t.Fatal(err)
	}
	// An Aldous-Broder walk capped at 1 step cannot cover a 16-vertex graph.
	st, err := sess.Stream(context.Background(), StreamRequest{
		K: 8, Spec: SamplerSpec{Name: SamplerAldousBroder, MaxSteps: 1}, SeedBase: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for range st.Results() {
	}
	if err := st.Err(); !errors.Is(err, ErrSampleFailed) {
		t.Errorf("Err() = %v, want ErrSampleFailed", err)
	}
	if m := e.Metrics(); m.Aborted < 1 {
		t.Errorf("aborted counter not bumped on sampler failure: %+v", m)
	}
}

// TestSamplerSpecValidation covers the typed dispatch: unknown names wrap
// the ErrUnknownSampler sentinel, knobs are rejected on samplers that don't
// read them, and the zero value defaults to the phase sampler.
func TestSamplerSpecValidation(t *testing.T) {
	if err := (SamplerSpec{}).Validate(); err != nil {
		t.Errorf("zero spec should default to phase: %v", err)
	}
	for _, s := range Samplers() {
		if err := SpecFor(s).Validate(); err != nil {
			t.Errorf("SpecFor(%s): %v", s, err)
		}
	}
	if err := SpecFor("quantum").Validate(); !errors.Is(err, ErrUnknownSampler) {
		t.Errorf("unknown sampler error = %v, want ErrUnknownSampler", err)
	}
	bad := []SamplerSpec{
		{Name: SamplerPhase, SegmentLength: 10},    // knob belongs to doubling
		{Name: SamplerWilson, MaxSteps: 10},        // knob belongs to aldous
		{Name: SamplerPhase, Root: 3},              // root is for the walk baselines
		{Name: SamplerLowCover, SegmentLength: -1}, // negative knob
		{Name: SamplerAldousBroder, MaxSteps: -1},  // negative knob
		{Name: SamplerWilson, Root: -2},            // negative root
	}
	for _, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("spec %+v validated", spec)
		} else if errors.Is(err, ErrUnknownSampler) {
			t.Errorf("spec %+v misreported as unknown sampler: %v", spec, err)
		}
	}
	good := []SamplerSpec{
		{Name: SamplerLowCover, SegmentLength: 64},
		{Name: SamplerAldousBroder, MaxSteps: 1 << 20, Root: 2},
		{Name: SamplerWilson, Root: 5},
	}
	for _, spec := range good {
		if err := spec.Validate(); err != nil {
			t.Errorf("spec %+v rejected: %v", spec, err)
		}
	}
}

// TestStreamValidation rejects malformed requests synchronously.
func TestStreamValidation(t *testing.T) {
	e := testEngine(t)
	sess, err := e.Open("g")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Stream(context.Background(), StreamRequest{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := sess.Stream(context.Background(), StreamRequest{K: maxBatchSize + 1}); err == nil {
		t.Error("oversized K accepted")
	}
	if _, err := sess.Stream(context.Background(), StreamRequest{K: 1, Spec: SpecFor("nope")}); !errors.Is(err, ErrUnknownSampler) {
		t.Errorf("unknown sampler = %v, want ErrUnknownSampler", err)
	}
	// An out-of-range walk root must be a synchronous request error (the
	// graph has 16 vertices), never a panic in a worker goroutine.
	for _, name := range []Sampler{SamplerAldousBroder, SamplerWilson} {
		if _, err := sess.Stream(context.Background(), StreamRequest{K: 1, Spec: SamplerSpec{Name: name, Root: 16}}); err == nil {
			t.Errorf("%s: out-of-range root accepted", name)
		}
		if _, _, err := sess.Sample(context.Background(), SamplerSpec{Name: name, Root: 99}, 1); err == nil {
			t.Errorf("%s: out-of-range root accepted by Sample", name)
		}
	}
	// A doubling segment length whose state exceeds doubling.MaxWalkSlots
	// must be refused before anything is allocated, not kill the process.
	huge := SamplerSpec{Name: SamplerLowCover, SegmentLength: 2000000000}
	if _, err := sess.Stream(context.Background(), StreamRequest{K: 1, Spec: huge}); err == nil {
		t.Error("over-budget segment length accepted")
	}
	if _, _, err := sess.Sample(context.Background(), huge, 1); err == nil {
		t.Error("over-budget segment length accepted by Sample")
	}
	if _, err := e.Open("missing"); !errors.Is(err, ErrUnknownGraph) {
		t.Errorf("Open(missing) = %v, want ErrUnknownGraph", err)
	}
}

// TestDoublingBudget: the budget admits the default segment length up to
// n=256 and the largest power-of-two segment that fits, and refuses the
// default at n=257, one step past the largest fit, and lengths near
// math.MaxInt, whose rounding up to a power of two would overflow.
func TestDoublingBudget(t *testing.T) {
	cases := []struct {
		n, segLen int
		ok        bool
	}{
		{192, 0, true},
		{256, 0, true},
		{257, 0, false},
		{2048, 0, false},
		{8, doubling.MaxWalkSlots / 8, true},
		{8, doubling.MaxWalkSlots/8 + 1, false},
		{8, 2000000000, false},
		{8, 1<<62 + 1, false},
		{8, math.MaxInt, false},
	}
	for _, tc := range cases {
		_, err := SamplerSpec{Name: SamplerLowCover, SegmentLength: tc.segLen}.normalizedFor(tc.n)
		if (err == nil) != tc.ok {
			t.Errorf("n=%d segment length %d: err %v, want ok=%v", tc.n, tc.segLen, err, tc.ok)
		}
	}
}

// TestSessionKnobsChangeOutput checks that spec knobs actually reach the
// samplers: a different Aldous-Broder root or Wilson root changes the
// per-seed tree (the distributions agree, the draws don't).
func TestSessionKnobsChangeOutput(t *testing.T) {
	e := testEngine(t)
	sess, err := e.Open("g")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a0, _, err := sess.Sample(ctx, SamplerSpec{Name: SamplerWilson}, 4)
	if err != nil {
		t.Fatal(err)
	}
	a1, _, err := sess.Sample(ctx, SamplerSpec{Name: SamplerWilson, Root: 7}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a0.Encode() == a1.Encode() {
		t.Error("wilson root knob had no effect on the per-seed draw")
	}
	rep, _, err := sess.Sample(ctx, SamplerSpec{Name: SamplerWilson, Root: 7}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Encode() != a1.Encode() {
		t.Error("same (spec, seed) gave different trees")
	}
}

// TestNewSessionStandalone covers the facade's ephemeral path.
func TestNewSessionStandalone(t *testing.T) {
	if _, err := NewSession(nil, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	disconnected := graph.MustNew(3)
	if err := disconnected.AddUnitEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSession(disconnected, Options{}); err == nil {
		t.Error("disconnected graph accepted")
	}
	g, err := graph.Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(g, Options{Config: core.Config{WalkLength: 256}})
	if err != nil {
		t.Fatal(err)
	}
	tree, stats, err := sess.Sample(context.Background(), SpecFor(SamplerPhase), 5)
	if err != nil {
		t.Fatal(err)
	}
	_ = stats
	if !tree.IsSpanningTreeOf(g) {
		t.Error("standalone session sampled a non-tree")
	}
	if info := sess.Info(); info.Vertices != 8 || info.Edges != 8 {
		t.Errorf("session info wrong: %+v", info)
	}
	if c, err := sess.TreeCount(); err != nil || c.Int64() != 8 {
		t.Errorf("C8 tree count = %v, %v; want 8", c, err)
	}
}
