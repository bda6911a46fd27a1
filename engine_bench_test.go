package spantree

import (
	"context"
	"testing"
)

// benchEngineGraph builds the warm-vs-cold benchmark instance: a 96-vertex
// expander, large enough that the phase-0 precomputation (16 squarings of a
// 96x96 transition matrix plus their column all-to-alls) is a substantial
// slice of a cold Sample call, and the later-phase Schur/shortcut/power-table
// builds are the dominant remainder.
func benchEngineGraph(b *testing.B) *Graph {
	b.Helper()
	g, err := Expander(96, 3)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchSession registers the benchmark graph in a fresh engine and opens a
// session on it.
func benchSession(b *testing.B, opts ...Option) *Session {
	b.Helper()
	eng, err := NewEngine(0, opts...)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Register("g", benchEngineGraph(b)); err != nil {
		b.Fatal(err)
	}
	sess, err := eng.Open("g")
	if err != nil {
		b.Fatal(err)
	}
	return sess
}

// BenchmarkEngineWarmVsCold/cold draws each tree with the public Sample
// call, which rebuilds the per-graph precomputation every time;
// .../warm draws from an Engine whose registry has the precomputation
// cached. Same graph, same sampler, same seeds — the gap is exactly the
// amortized cost the engine exists to eliminate.
func BenchmarkEngineWarmVsCold(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		g := benchEngineGraph(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := Sample(g, WithSeed(uint64(i+1))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		sess := benchSession(b)
		ctx := context.Background()
		// Prime the phase-0 cache so the measured loop is per-sample work.
		if _, _, err := sess.Sample(ctx, PhaseSpec(), 0); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := sess.Sample(ctx, PhaseSpec(), uint64(i+1)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineBatchThroughput measures whole batches on the default
// worker pool — the serving path's unit of work.
func BenchmarkEngineBatchThroughput(b *testing.B) {
	sess := benchSession(b)
	const k = 32
	b.ResetTimer()
	var elapsed float64
	for i := 0; i < b.N; i++ {
		res, err := sess.Collect(context.Background(), StreamRequest{K: k, Spec: PhaseSpec(), SeedBase: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		elapsed += res.Elapsed.Seconds()
	}
	b.ReportMetric(float64(k*b.N)/elapsed, "trees/s")
}
