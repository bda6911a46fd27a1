package engine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
)

// TestEngineFidelityGolden is the serving-level contract of the charged
// simulator fast path: a collected batch with "sim_fidelity": "full" is
// byte-identical — trees AND full per-sample Stats — to the default charged
// batch, across the phase and exact samplers and at 1, 4, and GOMAXPROCS
// workers.
func TestEngineFidelityGolden(t *testing.T) {
	e := New(Options{})
	if err := e.RegisterFamily("g", "expander", 24, 7); err != nil {
		t.Fatal(err)
	}
	sess, err := e.Open("g")
	if err != nil {
		t.Fatal(err)
	}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, sampler := range []Sampler{SamplerPhase, SamplerExact, SamplerLowCover} {
		var ref *BatchResult
		for _, mode := range []string{"charged", "full", ""} {
			for _, workers := range workerCounts {
				res, err := sess.Collect(context.Background(), StreamRequest{
					K:        6,
					Spec:     SamplerSpec{Name: sampler, SimFidelity: mode},
					SeedBase: 42,
					Workers:  workers,
				})
				if err != nil {
					t.Fatalf("%s/%s/%d workers: %v", sampler, mode, workers, err)
				}
				if ref == nil {
					ref = res
					continue
				}
				for i := range res.Trees {
					if res.Trees[i].Encode() != ref.Trees[i].Encode() {
						t.Errorf("%s/%s/%d workers: tree %d differs", sampler, mode, workers, i)
					}
				}
				if !reflect.DeepEqual(res.Stats, ref.Stats) {
					t.Errorf("%s/%s/%d workers: stats differ", sampler, mode, workers)
				}
			}
		}
	}
}

// TestSimFidelitySpecValidation pins the spec rules: the knob belongs to the
// clique samplers only, and unknown modes are rejected.
func TestSimFidelitySpecValidation(t *testing.T) {
	if err := (SamplerSpec{Name: SamplerPhase, SimFidelity: "full"}).Validate(); err != nil {
		t.Errorf("full on phase rejected: %v", err)
	}
	if err := (SamplerSpec{Name: SamplerLowCover, SimFidelity: "charged"}).Validate(); err != nil {
		t.Errorf("charged on doubling rejected: %v", err)
	}
	if err := (SamplerSpec{Name: SamplerWilson, SimFidelity: "full"}).Validate(); err == nil {
		t.Error("sim_fidelity accepted on a sequential sampler")
	}
	if err := (SamplerSpec{Name: SamplerPhase, SimFidelity: "warp"}).Validate(); err == nil {
		t.Error("unknown sim_fidelity accepted")
	}
}

// TestEngineFidelityUnknownGraphStillFirst keeps error precedence intact
// with the new spec field present.
func TestEngineFidelityUnknownGraphStillFirst(t *testing.T) {
	e := New(Options{})
	_, err := e.Open("missing")
	if !errors.Is(err, ErrUnknownGraph) {
		t.Errorf("want ErrUnknownGraph, got %v", err)
	}
}
