package engine

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/prng"
)

// testEngine returns an engine with a short walk length so phase-sampler
// tests stay fast, plus a registered 16-vertex expander under "g".
func testEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(Options{Config: core.Config{WalkLength: 256}})
	if err := e.RegisterFamily("g", "expander", 16, 3); err != nil {
		t.Fatal(err)
	}
	return e
}

func encodeAll(res *BatchResult) []string {
	out := make([]string, len(res.Trees))
	for i, tr := range res.Trees {
		out[i] = tr.Encode()
	}
	return out
}

// collectBatch opens a session on key and gathers one batch — the test
// shorthand for the Open+Collect idiom.
func collectBatch(e *Engine, key string, req StreamRequest) (*BatchResult, error) {
	sess, err := e.Open(key)
	if err != nil {
		return nil, err
	}
	return sess.Collect(context.Background(), req)
}

// TestBatchDeterministicAcrossWorkers is the engine's core contract: a batch
// is a pure function of (graph, sampler, seed base, k) — 1 worker and many
// workers produce byte-identical trees and stats.
func TestBatchDeterministicAcrossWorkers(t *testing.T) {
	e := testEngine(t)
	for _, sampler := range []Sampler{SamplerPhase, SamplerExact, SamplerLowCover, SamplerWilson} {
		req := StreamRequest{K: 8, Spec: SamplerSpec{Name: sampler, MaxWorkers: 1}, SeedBase: 7}
		serial, err := collectBatch(e, "g", req)
		if err != nil {
			t.Fatalf("%s serial: %v", sampler, err)
		}
		for _, workers := range []int{4, 8} {
			req.Spec.MaxWorkers = workers
			parallel, err := collectBatch(e, "g", req)
			if err != nil {
				t.Fatalf("%s %d workers: %v", sampler, workers, err)
			}
			if !reflect.DeepEqual(encodeAll(serial), encodeAll(parallel)) {
				t.Errorf("%s: trees differ between 1 and %d workers", sampler, workers)
			}
			if !reflect.DeepEqual(serial.Stats, parallel.Stats) {
				t.Errorf("%s: stats differ between 1 and %d workers", sampler, workers)
			}
		}
		if serial.Summary.Samples != 8 || serial.Summary.DistinctTrees < 1 {
			t.Errorf("%s: bad summary %+v", sampler, serial.Summary)
		}
	}
}

// TestWarmMatchesCold checks that the cached (Prepared) phase sampler agrees
// with the cold core.Sample path tree-for-tree and round-for-round under the
// default Fast backend, for the engine's exact seed derivation.
func TestWarmMatchesCold(t *testing.T) {
	e := testEngine(t)
	res, err := collectBatch(e, "g", StreamRequest{K: 4, Spec: SpecFor(SamplerPhase), SeedBase: 11})
	if err != nil {
		t.Fatal(err)
	}
	g, err := e.Graph("g")
	if err != nil {
		t.Fatal(err)
	}
	base := prng.New(11)
	for i := range res.Trees {
		tree, stats, err := core.Sample(g, core.Config{WalkLength: 256}, base.Split(uint64(i)))
		if err != nil {
			t.Fatalf("cold sample %d: %v", i, err)
		}
		if tree.Encode() != res.Trees[i].Encode() {
			t.Errorf("sample %d: warm tree %s != cold tree %s", i, res.Trees[i].Encode(), tree.Encode())
		}
		if stats.Rounds != res.Stats[i].Rounds || stats.TotalWords != res.Stats[i].TotalWords {
			t.Errorf("sample %d: warm stats (%d rounds, %d words) != cold (%d rounds, %d words)",
				i, res.Stats[i].Rounds, res.Stats[i].TotalWords, stats.Rounds, stats.TotalWords)
		}
	}
}

// TestConcurrentBatchesSharedGraph runs several batches against one cached
// graph entry at once; under -race this proves the shared precomputation is
// read-only, and the results must still match a solo run of the same batch.
func TestConcurrentBatchesSharedGraph(t *testing.T) {
	e := testEngine(t)
	req := StreamRequest{K: 6, Spec: SpecFor(SamplerPhase), SeedBase: 5}
	want, err := collectBatch(e, "g", req)
	if err != nil {
		t.Fatal(err)
	}
	const racers = 4
	results := make([]*BatchResult, racers)
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for r := 0; r < racers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// Same seed base on every racer: identical streams hammer the
			// same cached matrices, the worst case for hidden mutation.
			results[r], errs[r] = collectBatch(e, "g", req)
		}(r)
	}
	wg.Wait()
	for r := 0; r < racers; r++ {
		if errs[r] != nil {
			t.Fatalf("racer %d: %v", r, errs[r])
		}
		if !reflect.DeepEqual(encodeAll(want), encodeAll(results[r])) {
			t.Errorf("racer %d produced different trees", r)
		}
	}
}

// TestAllSamplersProduceValidTrees dispatches each sampler once and
// validates the output tree against the graph.
func TestAllSamplersProduceValidTrees(t *testing.T) {
	e := testEngine(t)
	g, err := e.Graph("g")
	if err != nil {
		t.Fatal(err)
	}
	for _, sampler := range Samplers() {
		res, err := collectBatch(e, "g", StreamRequest{K: 2, Spec: SpecFor(sampler), SeedBase: 1})
		if err != nil {
			t.Fatalf("%s: %v", sampler, err)
		}
		for i, tr := range res.Trees {
			if !tr.IsSpanningTreeOf(g) {
				t.Errorf("%s: tree %d is not a spanning tree", sampler, i)
			}
		}
	}
}

func TestRegistryLifecycle(t *testing.T) {
	e := New(Options{})
	if err := e.RegisterFamily("a", "cycle", 6, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterFamily("a", "path", 6, 0); err == nil {
		t.Error("duplicate key accepted")
	}
	if err := e.RegisterFamily("b", "nosuchfamily", 6, 0); err == nil {
		t.Error("unknown family accepted")
	}
	if err := e.Register("", graph.MustNew(1)); err == nil {
		t.Error("empty key accepted")
	}
	disconnected := graph.MustNew(4)
	if err := disconnected.AddUnitEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("d", disconnected); err == nil {
		t.Error("disconnected graph accepted")
	}
	if _, err := collectBatch(e, "zzz", StreamRequest{K: 1}); err == nil {
		t.Error("sampling an unregistered graph succeeded")
	}
	if _, err := collectBatch(e, "a", StreamRequest{K: 0}); err == nil {
		t.Error("empty batch accepted")
	}
	info, err := e.Info("a")
	if err != nil || info.Vertices != 6 || info.Edges != 6 {
		t.Errorf("info = %+v, err = %v", info, err)
	}
	if got := e.Keys(); len(got) != 1 || got[0] != "a" {
		t.Errorf("keys = %v", got)
	}
	if !e.Deregister("a") || e.Deregister("a") {
		t.Error("deregister lifecycle broken")
	}
	m := e.Metrics()
	if m.Graphs != 0 {
		t.Errorf("metrics after deregister: %+v", m)
	}
}

// TestAuditUniformSampler audits Wilson (exactly uniform) on a cycle, whose
// n spanning trees make the TV estimate sharp; the measured TV must sit
// within a small factor of the sampling noise floor.
func TestAuditUniformSampler(t *testing.T) {
	e := New(Options{})
	if err := e.RegisterFamily("c", "cycle", 6, 0); err != nil {
		t.Fatal(err)
	}
	sess, err := e.Open("c")
	if err != nil {
		t.Fatal(err)
	}
	res, audit, err := sess.Audit(context.Background(), StreamRequest{K: 600, Spec: SpecFor(SamplerWilson), SeedBase: 2})
	if err != nil {
		t.Fatal(err)
	}
	if audit.TreeCount != 6 {
		t.Errorf("cycle C6 has 6 spanning trees, audit says %d", audit.TreeCount)
	}
	if !audit.Pass(5) {
		t.Errorf("Wilson failed uniformity: TV %g vs noise %g", audit.TV, audit.Noise)
	}
	if res.Summary.DistinctTrees != 6 {
		t.Errorf("600 draws over 6 trees saw only %d distinct", res.Summary.DistinctTrees)
	}
	if info, err := e.Info("c"); err != nil || info.TreeCount != "6" {
		t.Errorf("tree count not cached into info: %+v, %v", info, err)
	}
	m := e.Metrics()
	if m.Batches < 1 || m.Samples < 600 {
		t.Errorf("metrics not counting: %+v", m)
	}
}

func TestSummarize(t *testing.T) {
	sts := []core.Stats{
		{Rounds: 10, Supersteps: 5, TotalWords: 100, Phases: 2, WalkSteps: 7},
		{Rounds: 30, Supersteps: 15, TotalWords: 300, Phases: 4, WalkSteps: 9},
	}
	s := Summarize(nil, sts)
	if s.Rounds.Min != 10 || s.Rounds.Max != 30 || s.Rounds.Total != 40 || s.Rounds.Mean != 20 {
		t.Errorf("rounds distribution wrong: %+v", s.Rounds)
	}
	if s.TotalWords.Total != 400 || s.Phases.Max != 4 || s.WalkSteps.Min != 7 {
		t.Errorf("summary wrong: %+v", s)
	}
}

// TestBatchCancellation aborts a long batch via context and expects an error.
func TestBatchCancellation(t *testing.T) {
	e := testEngine(t)
	sess, err := e.Open("g")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Collect(ctx, StreamRequest{K: 64, Spec: SpecFor(SamplerPhase), SeedBase: 1}); err == nil {
		t.Error("canceled batch succeeded")
	}
}
