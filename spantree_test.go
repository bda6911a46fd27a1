package spantree

import "testing"

func TestPublicAPISample(t *testing.T) {
	g, err := ErdosRenyi(12, 0.4, 7)
	if err != nil {
		t.Fatal(err)
	}
	tree, stats, err := Sample(g, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if !tree.IsSpanningTreeOf(g) {
		t.Error("not a spanning tree")
	}
	if stats.Rounds <= 0 {
		t.Error("no rounds reported")
	}
	// Determinism through the public API.
	tree2, _, err := Sample(g, WithSeed(3))
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
	if _, _, err := SampleExact(g, WithSeed(1)); err != nil {
		t.Errorf("SampleExact: %v", err)
	}
	if _, _, err := SampleLowCoverTime(g, WithSeed(1)); err != nil {
		t.Errorf("SampleLowCoverTime: %v", err)
	}
	if _, err := SampleAldousBroder(g, 1); err != nil {
		t.Errorf("SampleAldousBroder: %v", err)
	}
	if _, err := SampleWilson(g, 1); err != nil {
		t.Errorf("SampleWilson: %v", err)
	}
	if _, err := SampleMSTStrawman(g, 1); err != nil {
		t.Errorf("SampleMSTStrawman: %v", err)
	}
}

func TestPublicAPIOptions(t *testing.T) {
	g, err := Complete(8)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Sample(g,
		WithSeed(2),
		WithEpsilon(0.01),
		WithRho(3),
		WithWalkLength(512),
		WithBackend("semiring3d"),
		WithMatching("exact"),
		WithPrecision(1e-9),
	)
	if err != nil {
		t.Fatalf("options: %v", err)
	}
	if _, _, err := Sample(g, WithBackend("gpu")); err == nil {
		t.Error("expected error for unknown backend")
	}
	if _, _, err := Sample(g, WithMatching("quantum")); err == nil {
		t.Error("expected error for unknown matching sampler")
	}
	if _, _, err := Sample(g, WithEpsilon(0)); err == nil {
		t.Error("expected error for epsilon 0")
	}
	if _, _, err := Sample(g, WithRho(1)); err == nil {
		t.Error("expected error for rho 1")
	}
	if _, _, err := Sample(g, WithWalkLength(100)); err == nil {
		t.Error("expected error for non-power-of-two walk length")
	}
	if _, _, err := Sample(g, WithPrecision(-1)); err == nil {
		t.Error("expected error for negative precision")
	}
	if _, _, err := SampleLowCoverTime(g, WithSegmentLength(-1)); err == nil {
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
	seed := uint64(0)
	res, err := AuditUniformity(g, 3000, func() (*Tree, error) {
		seed++
		return SampleWilson(g, seed)
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
	seed := uint64(0)
	res, err := AuditWeighted(g, 3000, 100, func() (*Tree, error) {
		seed++
		return SampleWilson(g, seed)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass(3) {
		t.Errorf("weighted audit failed: TV %.4f noise %.4f", res.TV, res.Noise)
	}
	tree, err := SampleWilson(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := TreeWeight(g, tree)
	if err != nil || w < 1 {
		t.Errorf("TreeWeight = %g, %v", w, err)
	}
}
