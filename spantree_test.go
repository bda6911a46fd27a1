package spantree

import (
	"context"
	"testing"
)

// sampleWith prepares a fresh session on g with opts and draws one tree of
// the named sampler at seed, so every call pays the per-graph
// precomputation.
func sampleWith(tb testing.TB, g *Graph, name Sampler, seed uint64, opts ...Option) (*Tree, *Stats, error) {
	tb.Helper()
	sess, err := Prepare(g, opts...)
	if err != nil {
		return nil, nil, err
	}
	return sess.Sample(context.Background(), SpecFor(name), seed)
}

func TestPublicAPISample(t *testing.T) {
	g, err := ErdosRenyi(12, 0.4, 7)
	if err != nil {
		t.Fatal(err)
	}
	tree, stats, err := sampleWith(t, g, SamplerPhase, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.IsSpanningTreeOf(g) {
		t.Error("not a spanning tree")
	}
	if stats.Rounds <= 0 {
		t.Error("no rounds reported")
	}
	// Determinism through the public API, across separately prepared
	// sessions.
	tree2, _, err := sampleWith(t, g, SamplerPhase, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Encode() != tree2.Encode() {
		t.Error("same seed gave different trees")
	}
}

func TestPublicAPIVariants(t *testing.T) {
	g, err := Wheel(6)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []Sampler{SamplerExact, SamplerLowCover, SamplerAldousBroder, SamplerWilson, SamplerMST} {
		if _, _, err := sess.Sample(context.Background(), SpecFor(name), 1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestPublicAPIOptions(t *testing.T) {
	g, err := Complete(8)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = sampleWith(t, g, SamplerPhase, 2,
		WithEpsilon(0.01),
		WithRho(3),
		WithWalkLength(512),
		WithBackend("semiring3d"),
		WithPrecision(1e-9),
	)
	if err != nil {
		t.Fatalf("options: %v", err)
	}
	for name, opt := range map[string]Option{
		"unknown backend":              WithBackend("gpu"),
		"epsilon 0":                    WithEpsilon(0),
		"rho 1":                        WithRho(1),
		"non-power-of-two walk length": WithWalkLength(100),
		"negative precision":           WithPrecision(-1),
	} {
		if _, err := Prepare(g, opt); err == nil {
			t.Errorf("expected error for %s", name)
		}
	}
	sess, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Sample(context.Background(), SamplerSpec{Name: SamplerLowCover, SegmentLength: -1}, 1); err == nil {
		t.Error("expected error for bad segment length")
	}
}

func TestPublicAPICountAndAudit(t *testing.T) {
	g, err := Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := CountSpanningTrees(g)
	if err != nil || cnt.Int64() != 16 {
		t.Errorf("CountSpanningTrees(K4) = %v, %v; want 16", cnt, err)
	}
	sess, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(0)
	res, err := AuditUniformity(g, 3000, func() (*Tree, error) {
		seed++
		tree, _, err := sess.Sample(context.Background(), SpecFor(SamplerWilson), seed)
		return tree, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass(3) {
		t.Errorf("Wilson audit through public API failed: TV %.4f noise %.4f", res.TV, res.Noise)
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	cases := map[string]func() (*Graph, error){
		"NewGraph": func() (*Graph, error) { return NewGraph(5) },
		"Complete": func() (*Graph, error) { return Complete(5) },
		"Expander": func() (*Graph, error) { return Expander(20, 1) },
		"Regular":  func() (*Graph, error) { return RandomRegular(10, 3, 1) },
		"ER":       func() (*Graph, error) { return ErdosRenyi(10, 0.5, 1) },
	}
	for name, build := range cases {
		if _, err := build(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestPublicAPIWeighted(t *testing.T) {
	g, err := NewGraph(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 2, 1); err != nil {
		t.Fatal(err)
	}
	sess, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(0)
	res, err := AuditWeighted(g, 3000, 100, func() (*Tree, error) {
		seed++
		tree, _, err := sess.Sample(context.Background(), SpecFor(SamplerWilson), seed)
		return tree, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass(3) {
		t.Errorf("weighted audit failed: TV %.4f noise %.4f", res.TV, res.Noise)
	}
	tree, _, err := sess.Sample(context.Background(), SpecFor(SamplerWilson), 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := TreeWeight(g, tree)
	if err != nil || w < 1 {
		t.Errorf("TreeWeight = %g, %v", w, err)
	}
}
