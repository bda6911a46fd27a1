package engine

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// obsEngine is testEngine with an explicit tracer sampling period.
func obsEngine(t *testing.T, every int) *Engine {
	t.Helper()
	e := New(Options{Config: core.Config{WalkLength: 256}, TraceSampleEvery: every})
	if err := e.RegisterFamily("g", "expander", 16, 3); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestTracedMatchesUntraced is the observability layer's determinism
// contract: tracing every request and tracing nothing produce byte-identical
// trees and identical cost stats. Run with -race it also proves span
// recording is safe under the parallel worker pool.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, sampler := range []Sampler{SamplerPhase, SamplerWilson} {
		req := StreamRequest{K: 6, Spec: SamplerSpec{Name: sampler, MaxWorkers: 4}, SeedBase: 9}
		traced := obsEngine(t, 1) // every stream traced
		got, err := collectBatch(traced, "g", req)
		if err != nil {
			t.Fatalf("%s traced: %v", sampler, err)
		}
		if traced.Tracer().Recorded() == 0 {
			t.Fatalf("%s: tracer with period 1 recorded no traces", sampler)
		}
		untraced := obsEngine(t, -1) // tracing disabled
		want, err := collectBatch(untraced, "g", req)
		if err != nil {
			t.Fatalf("%s untraced: %v", sampler, err)
		}
		if untraced.Tracer().Recorded() != 0 {
			t.Fatalf("%s: disabled tracer recorded a trace", sampler)
		}
		if !reflect.DeepEqual(encodeAll(got), encodeAll(want)) {
			t.Errorf("%s: trees differ between traced and untraced runs", sampler)
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Errorf("%s: stats differ between traced and untraced runs", sampler)
		}
	}
}

// TestTraceSuperstepAccounting pins the auditability invariant that makes
// traces a check on the theoretical cost model: within one sample's spans,
// the spans carrying a "words" attribute are exactly the supersteps
// (count == Stats.Supersteps) and the "rounds" attributes — supersteps plus
// charge: spans — sum to Stats.Rounds.
func TestTraceSuperstepAccounting(t *testing.T) {
	// Short walks keep the span count under the per-trace cap; the invariant
	// is per-span, so the workload size is immaterial.
	e := New(Options{Config: core.Config{WalkLength: 64}})
	if err := e.RegisterFamily("g", "expander", 16, 3); err != nil {
		t.Fatal(err)
	}
	sess, err := e.Open("g")
	if err != nil {
		t.Fatal(err)
	}
	tr := e.Tracer().StartForced("test/batch", e.Tracer().NewID())
	ctx := obs.NewContext(context.Background(), tr)
	res, err := sess.Collect(ctx, StreamRequest{K: 2, Spec: SpecFor(SamplerPhase), SeedBase: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()

	var snap obs.TraceSnapshot
	found := false
	for _, s := range e.Tracer().Snapshot(0) {
		if s.ID == tr.ID() {
			snap, found = s, true
		}
	}
	if !found {
		t.Fatal("forced trace missing from tracer ring")
	}
	if !snap.Complete {
		t.Error("finished trace not marked complete")
	}
	if snap.DroppedSpans != 0 {
		t.Fatalf("trace dropped %d spans; invariant check needs all of them", snap.DroppedSpans)
	}
	for i, st := range res.Stats {
		steps, rounds := 0, 0
		for _, sp := range snap.Spans {
			if sp.Attrs["sample"] != int64(i) {
				continue
			}
			if _, ok := sp.Attrs["words"]; ok {
				steps++
			}
			if r, ok := sp.Attrs["rounds"]; ok {
				rounds += int(r)
			}
		}
		if steps != st.Supersteps {
			t.Errorf("sample %d: %d superstep spans, stats say %d supersteps", i, steps, st.Supersteps)
		}
		if rounds != st.Rounds {
			t.Errorf("sample %d: span rounds sum to %d, stats say %d", i, rounds, st.Rounds)
		}
	}
}

// TestLatencyMetricsPopulated checks that a batch feeds the always-on
// histograms Metrics surfaces: one per-tree observation per sample for the
// sampler that ran, at least one scheduler-wait observation per slot lease,
// and nothing for samplers that never ran.
func TestLatencyMetricsPopulated(t *testing.T) {
	e := testEngine(t)
	const k = 5
	if _, err := collectBatch(e, "g", StreamRequest{K: k, Spec: SpecFor(SamplerPhase), SeedBase: 1}); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	phase, ok := m.Latency.Samplers[string(SamplerPhase)]
	if !ok || phase.Count != k {
		t.Errorf("phase latency count = %+v, want %d observations", phase, k)
	}
	if phase.SumSeconds < 0 || phase.P99 < phase.P50 {
		t.Errorf("phase latency snapshot inconsistent: %+v", phase)
	}
	if _, ok := m.Latency.Samplers[string(SamplerWilson)]; ok {
		t.Error("sampler that never ran reported latency")
	}
	if m.Latency.SchedulerWait.Count != k {
		t.Errorf("scheduler wait count = %d, want %d", m.Latency.SchedulerWait.Count, k)
	}
}
