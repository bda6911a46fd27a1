package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/prng"
)

// Determinism goldens for the dense-kernel overhaul: trees AND Stats must be
// byte-identical across kernel worker counts, stream worker counts, kernel
// variants, and simulator fidelities. Run in the race-enabled CI job, these
// also prove the within-sample parallelism races nothing.

// kernelGoldenBatch collects one phase-sampler batch from a fresh engine
// configured with the given knob combination.
func kernelGoldenBatch(t *testing.T, kernelWorkers, streamWorkers int, fidelity clique.Fidelity) *BatchResult {
	t.Helper()
	e := New(Options{Config: core.Config{
		WalkLength:    256,
		KernelWorkers: kernelWorkers,
		SimFidelity:   fidelity,
	}})
	if err := e.RegisterFamily("g", "expander", 16, 3); err != nil {
		t.Fatal(err)
	}
	res, err := collectBatch(e, "g", StreamRequest{
		K:        6,
		Spec:     SpecFor(SamplerPhase),
		SeedBase: 7,
		Workers:  streamWorkers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestKernelWorkersDeterminismGolden sweeps KernelWorkers x stream workers x
// fidelity and pins every combination to the sequential charged reference.
func TestKernelWorkersDeterminismGolden(t *testing.T) {
	want := kernelGoldenBatch(t, 1, 1, clique.FidelityCharged)
	kernelCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, kw := range kernelCounts {
		for _, sw := range []int{1, 4} {
			for _, fid := range []clique.Fidelity{clique.FidelityCharged, clique.FidelityFull} {
				name := fmt.Sprintf("kernel=%d/stream=%d/%s", kw, sw, string(fid))
				got := kernelGoldenBatch(t, kw, sw, fid)
				if !reflect.DeepEqual(encodeAll(want), encodeAll(got)) {
					t.Errorf("%s: trees differ from sequential charged reference", name)
				}
				if !reflect.DeepEqual(want.Stats, got.Stats) {
					t.Errorf("%s: stats differ from sequential charged reference", name)
				}
			}
		}
	}
}

// TestKernelVariantDeterminismGolden pins the scalar audit kernel to the
// blocked default through the whole engine stack: same trees, same Stats.
func TestKernelVariantDeterminismGolden(t *testing.T) {
	defer matrix.SetKernel(matrix.KernelBlocked)
	matrix.SetKernel(matrix.KernelBlocked)
	blocked := kernelGoldenBatch(t, 2, 4, clique.FidelityCharged)
	matrix.SetKernel(matrix.KernelScalar)
	scalar := kernelGoldenBatch(t, 2, 4, clique.FidelityCharged)
	matrix.SetKernel(matrix.KernelBlocked)
	if !reflect.DeepEqual(encodeAll(blocked), encodeAll(scalar)) {
		t.Error("trees differ between blocked and scalar kernels")
	}
	if !reflect.DeepEqual(blocked.Stats, scalar.Stats) {
		t.Error("stats differ between blocked and scalar kernels")
	}
}

// TestKernelWorkersCoreLayerGolden exercises the knob below the engine: a
// direct core.Prepare + SampleWith sweep over worker counts and both kernel
// variants. This is the layer where the parallel squarings and batched Schur
// solves actually run.
func TestKernelWorkersCoreLayerGolden(t *testing.T) {
	g, err := graph.FromFamily("expander", 20, prng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	type draw struct {
		tree  string
		stats core.Stats
	}
	sample := func(kw int) []draw {
		t.Helper()
		p, err := core.Prepare(g, core.Config{WalkLength: 256, KernelWorkers: kw})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]draw, 4)
		base := prng.New(13)
		for i := range out {
			tree, stats, err := p.SampleWith(base.Split(uint64(i)), core.SampleOpts{})
			if err != nil {
				t.Fatal(err)
			}
			out[i] = draw{tree.Encode(), *stats}
		}
		return out
	}
	defer matrix.SetKernel(matrix.KernelBlocked)
	want := sample(1)
	for _, k := range []matrix.Kernel{matrix.KernelBlocked, matrix.KernelScalar} {
		matrix.SetKernel(k)
		for _, kw := range []int{1, 2, runtime.GOMAXPROCS(0), 7} {
			if got := sample(kw); !reflect.DeepEqual(want, got) {
				t.Errorf("kernel=%v workers=%d: draws differ from reference", k, kw)
			}
		}
	}
	matrix.SetKernel(matrix.KernelBlocked)
}
