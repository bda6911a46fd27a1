package engine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// chaosCleanup disarms every injected fault at test end and checks the test
// leaked no goroutines — a wedged stream or scheduler would show up here as a
// worker that never wound down.
func chaosCleanup(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		faultinject.Reset()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Errorf("goroutine leak: %d at start, %d after", before, runtime.NumGoroutine())
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// drainIndexed consumes a stream to completion, reassembling trees by index,
// with a watchdog so a wedged stream fails the test instead of hanging it.
func drainIndexed(t *testing.T, st *Stream, k int) []string {
	t.Helper()
	trees := make([]string, k)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range st.Results() {
			trees[r.Index] = r.Tree.Encode()
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stream did not complete within 30s")
	}
	return trees
}

// TestChaosSlotGrantFault fails one scheduler slot grant: the stream must
// abort with the typed ErrSampleFailed chain (not end silently short), and
// the engine stays fully reusable.
func TestChaosSlotGrantFault(t *testing.T) {
	chaosCleanup(t)
	e := testEngine(t)
	req := StreamRequest{K: 8, Spec: SpecFor(SamplerWilson), SeedBase: 3}
	want, err := collectBatch(e, "g", req)
	if err != nil {
		t.Fatal(err)
	}

	if err := faultinject.Set(faultinject.PointSchedAcquire, faultinject.Fault{
		Err: faultinject.ErrInjected, Times: 1,
	}); err != nil {
		t.Fatal(err)
	}
	_, err = collectBatch(e, "g", req)
	if !errors.Is(err, ErrSampleFailed) || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("slot-grant fault surfaced as %v, want ErrSampleFailed wrapping the injected error", err)
	}
	if faultinject.Hits(faultinject.PointSchedAcquire) != 1 {
		t.Fatalf("acquire fault hits = %d, want 1", faultinject.Hits(faultinject.PointSchedAcquire))
	}
	faultinject.Reset()

	got, err := collectBatch(e, "g", req)
	if err != nil {
		t.Fatalf("engine not reusable after a slot-grant fault: %v", err)
	}
	if !reflect.DeepEqual(encodeAll(want), encodeAll(got)) {
		t.Error("trees changed after a slot-grant fault came and went")
	}
}

// TestChaosSamplerPanicIsolated is the panic-isolation acceptance test: a
// panicking sampler fails its request with the ErrSamplePanic AND
// ErrSampleFailed chain, bumps Metrics.Panics, and leaves the engine serving
// byte-identical output afterward.
func TestChaosSamplerPanicIsolated(t *testing.T) {
	chaosCleanup(t)
	e := testEngine(t)
	req := StreamRequest{K: 6, Spec: SpecFor(SamplerWilson), SeedBase: 5}
	want, err := collectBatch(e, "g", req)
	if err != nil {
		t.Fatal(err)
	}

	if err := faultinject.Set(faultinject.PointSample, faultinject.Fault{
		Panic: "chaos", Times: 1,
	}); err != nil {
		t.Fatal(err)
	}
	sess, err := e.Open("g")
	if err != nil {
		t.Fatal(err)
	}
	st, err := sess.Stream(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	drainIndexed(t, st, req.K)
	serr := st.Err()
	if !errors.Is(serr, ErrSamplePanic) {
		t.Fatalf("stream error = %v, want ErrSamplePanic", serr)
	}
	if !errors.Is(serr, ErrSampleFailed) {
		t.Fatalf("stream error = %v, want the ErrSampleFailed chain too", serr)
	}
	if !strings.Contains(serr.Error(), "chaos") {
		t.Errorf("panic message lost from the error chain: %v", serr)
	}
	m := e.Metrics()
	if m.Panics != 1 {
		t.Errorf("Metrics.Panics = %d, want 1", m.Panics)
	}
	if m.Aborted < 1 {
		t.Errorf("panicked stream not counted as aborted: %+v", m)
	}
	faultinject.Reset()

	got, err := collectBatch(e, "g", req)
	if err != nil {
		t.Fatalf("engine did not survive the panic: %v", err)
	}
	if !reflect.DeepEqual(encodeAll(want), encodeAll(got)) {
		t.Error("trees changed after a recovered panic")
	}
}

// TestAdmissionQueueHoldAndWait is the overload acceptance test: with a
// 1-stream cap and a depth-2 queue, two requests beyond the cap WAIT (zero
// 429s until the queue is full), a third is rejected with ErrStreamLimit,
// the queued requests produce byte-identical output once admitted, and a
// later request whose deadline the measured waits prove unmeetable is
// rejected synchronously.
func TestAdmissionQueueHoldAndWait(t *testing.T) {
	chaosCleanup(t)
	req := StreamRequest{K: 4, Spec: SpecFor(SamplerWilson), SeedBase: 9}
	golden, err := collectBatch(testEngine(t), "g", req)
	if err != nil {
		t.Fatal(err)
	}

	e := New(Options{
		Config:              core.Config{WalkLength: 256},
		Workers:             2,
		MaxStreamsPerGraph:  1,
		AdmissionQueueDepth: 2,
	})
	if err := e.RegisterFamily("g", "expander", 16, 3); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	e.sampleHook = func() { <-gate }
	sess, err := e.Open("g")
	if err != nil {
		t.Fatal(err)
	}

	holder, err := sess.Stream(context.Background(), req)
	if err != nil {
		t.Fatalf("stream under the cap was not admitted: %v", err)
	}

	type outcome struct {
		trees []string
		err   error
	}
	outs := make(chan outcome, 2)
	for i := 0; i < 2; i++ {
		go func() {
			st, err := sess.Stream(context.Background(), req)
			if err != nil {
				outs <- outcome{err: err}
				return
			}
			trees := make([]string, req.K)
			for r := range st.Results() {
				trees[r.Index] = r.Tree.Encode()
			}
			outs <- outcome{trees: trees, err: st.Err()}
		}()
	}
	waitFor(t, "both requests to park in the admission queue", func() bool {
		return e.QueueStats("g").Queued == 2
	})
	m := e.Metrics()
	if m.StreamPool.QueuedStreams != 2 {
		t.Errorf("pool gauge QueuedStreams = %d, want 2", m.StreamPool.QueuedStreams)
	}
	if g := m.StreamsByGraph["g"]; g.QueuedStreams != 2 {
		t.Errorf("per-graph gauge QueuedStreams = %d, want 2", g.QueuedStreams)
	}

	// Cap reached AND queue full: only now does admission reject.
	if _, err := sess.Stream(context.Background(), req); !errors.Is(err, ErrStreamLimit) {
		t.Fatalf("request beyond the full queue = %v, want ErrStreamLimit", err)
	}

	// Hold the waiters parked long enough that the measured queue waits are
	// meaningfully positive — the feasibility check below leans on them.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	holderTrees := drainIndexed(t, holder, req.K)
	if err := holder.Err(); err != nil {
		t.Fatalf("holder stream failed: %v", err)
	}
	if !reflect.DeepEqual(holderTrees, encodeAll(golden)) {
		t.Error("holder stream trees differ from golden")
	}
	for i := 0; i < 2; i++ {
		out := <-outs
		if out.err != nil {
			t.Fatalf("queued request %d failed: %v (want admission, not rejection)", i, out.err)
		}
		if !reflect.DeepEqual(out.trees, encodeAll(golden)) {
			t.Errorf("queued request %d produced different trees than golden", i)
		}
	}
	if got := e.Metrics().Latency.AdmissionWait.Count; got < 2 {
		t.Errorf("admission-wait histogram count = %d, want >= 2", got)
	}

	// Feasibility pre-reject: with measured waits >= 50ms on record, a
	// request at the cap carrying a few-ms deadline is provably unservable
	// and must be turned away as a 429-class rejection, not parked to die.
	gate2 := make(chan struct{})
	e.sampleHook = func() { <-gate2 }
	holder2, err := sess.Stream(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	infeasible := req
	infeasible.Spec.DeadlineMS = 2
	_, err = sess.Stream(context.Background(), infeasible)
	if !errors.Is(err, ErrStreamLimit) {
		t.Fatalf("unmeetable deadline = %v, want ErrStreamLimit", err)
	}
	if !strings.Contains(err.Error(), "deadline cannot be met") {
		t.Errorf("rejection does not name the deadline: %v", err)
	}
	close(gate2)
	drainIndexed(t, holder2, req.K)
	if err := holder2.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionDeadlineExpiresInQueue parks a deadline-bearing request behind
// a stuck stream with NO queue-wait history (so it is admitted
// optimistically): the deadline must fire while queued, surface as
// ErrDeadlineExceeded — distinct from ErrStreamLimit — within deadline + ε,
// and land in the admission-stage deadline histogram.
func TestAdmissionDeadlineExpiresInQueue(t *testing.T) {
	chaosCleanup(t)
	e := New(Options{
		Config:              core.Config{WalkLength: 256},
		Workers:             1,
		MaxStreamsPerGraph:  1,
		AdmissionQueueDepth: 4,
	})
	if err := e.RegisterFamily("g", "expander", 16, 3); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	e.sampleHook = func() { <-gate }
	sess, err := e.Open("g")
	if err != nil {
		t.Fatal(err)
	}
	holder, err := sess.Stream(context.Background(), StreamRequest{K: 1, Spec: SpecFor(SamplerWilson), SeedBase: 1})
	if err != nil {
		t.Fatal(err)
	}

	const deadline = 150 * time.Millisecond
	req := StreamRequest{K: 2, Spec: SamplerSpec{Name: SamplerWilson, DeadlineMS: int(deadline.Milliseconds())}, SeedBase: 2}
	start := time.Now()
	_, err = sess.Stream(context.Background(), req)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("queued request with an expiring deadline = %v, want ErrDeadlineExceeded", err)
	}
	if errors.Is(err, ErrStreamLimit) {
		t.Fatalf("deadline expiry misreported as a stream-limit rejection: %v", err)
	}
	if elapsed < deadline-20*time.Millisecond {
		t.Errorf("request gave up after %v, before its %v deadline", elapsed, deadline)
	}
	if elapsed > deadline+2*time.Second {
		t.Errorf("deadline detected %v late (elapsed %v)", elapsed-deadline, elapsed)
	}
	de := e.Metrics().Latency.DeadlineExceeded
	if de["admission"].Count < 1 {
		t.Errorf("admission-stage deadline histogram empty: %+v", de)
	}

	close(gate)
	drainIndexed(t, holder, 1)
	if err := holder.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamDeadlineMidFlight fires the request deadline while samples are
// computing: the stream ends promptly with ErrDeadlineExceeded, well short of
// K, records the expiry stage, and the engine remains reusable.
func TestStreamDeadlineMidFlight(t *testing.T) {
	chaosCleanup(t)
	e := testEngine(t)
	e.sampleHook = func() { time.Sleep(2 * time.Millisecond) }
	sess, err := e.Open("g")
	if err != nil {
		t.Fatal(err)
	}
	const k = 1000
	st, err := sess.Stream(context.Background(), StreamRequest{
		K: k, Spec: SamplerSpec{Name: SamplerWilson, DeadlineMS: 60, MaxWorkers: 2}, SeedBase: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range st.Results() {
			delivered++
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not close after its deadline fired")
	}
	if err := st.Err(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("mid-flight deadline = %v, want ErrDeadlineExceeded", err)
	}
	if delivered >= k/2 {
		t.Errorf("deadline did not stop dispatch: %d of %d delivered", delivered, k)
	}
	if len(e.Metrics().Latency.DeadlineExceeded) == 0 {
		t.Error("no deadline stage recorded the expiry")
	}

	e.sampleHook = nil
	if _, err := collectBatch(e, "g", StreamRequest{K: 4, Spec: SpecFor(SamplerWilson), SeedBase: 2}); err != nil {
		t.Fatalf("engine not reusable after a deadline abort: %v", err)
	}
}

// TestAbortStreamsDrains covers the bounded-drain teeth: AbortStreams cancels
// every in-flight stream with ErrDraining, the streams wind down promptly,
// and the engine still serves afterward.
func TestAbortStreamsDrains(t *testing.T) {
	chaosCleanup(t)
	e := testEngine(t)
	e.sampleHook = func() { time.Sleep(2 * time.Millisecond) }
	sess, err := e.Open("g")
	if err != nil {
		t.Fatal(err)
	}
	st, err := sess.Stream(context.Background(), StreamRequest{
		K: 1000, Spec: SamplerSpec{Name: SamplerWilson, MaxWorkers: 2}, SeedBase: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Make sure the stream is genuinely in flight before aborting it.
	select {
	case <-st.Results():
	case <-time.After(10 * time.Second):
		t.Fatal("stream produced nothing")
	}

	if n := e.AbortStreams(nil); n != 1 {
		t.Fatalf("AbortStreams canceled %d streams, want 1", n)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range st.Results() {
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("aborted stream did not close")
	}
	if err := st.Err(); !errors.Is(err, ErrDraining) {
		t.Fatalf("aborted stream error = %v, want ErrDraining", err)
	}
	// Nothing left to abort, and the engine still serves.
	if n := e.AbortStreams(nil); n != 0 {
		t.Errorf("second AbortStreams canceled %d streams, want 0", n)
	}
	if _, err := collectBatch(e, "g", StreamRequest{K: 2, Spec: SpecFor(SamplerWilson), SeedBase: 2}); err != nil {
		t.Fatalf("engine not reusable after AbortStreams: %v", err)
	}
}
