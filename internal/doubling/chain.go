package doubling

import (
	"fmt"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/prng"
)

// Reproduction finding (experiment E5 measures it): running the doubling
// all the way to k = 1 concentrates receive load in the late iterations.
// Once two prefix walks with the same index end at the same vertex they are
// merged with the *same* suffix walk, so their endpoints coincide at every
// later iteration; the set of distinct endpoints collapses like the image
// of an iterated random function, and with only a handful of distinct
// (endpoint, index) hash arguments left, Lemma 10's t-wise independence
// argument has nothing to randomize — a single machine can receive Θ(n·η)
// words. ChainedWalk is the natural completion that preserves Theorem 2's
// round shape: stop the doubling while k >= stopFanout(n) = Θ(log n),
// leaving every machine with k independent length-(τ/k) walks, then stitch
// the single walk of interest by fetching one unconsumed segment per hop.
// The stitching moves τ + O(k) words to the leader (≈ τ/n + k rounds) and
// the segments consumed at each machine have disjoint index trees, so the
// chained walk is a true random walk by the strong Markov property.

// stopFanout is the walk count per machine at which ChainedWalk stops
// doubling and starts stitching on an n-clique: max(4, ⌈log2 n⌉), rounded
// up to a power of two so it aligns with the doubling's k.
func stopFanout(n int) int {
	f := max(intLog2Ceil(n), 4)
	p := 1
	for p < f {
		p <<= 1
	}
	return p
}

// ChainedWalk builds one length-tau random walk from start on the simulated
// clique in Õ(tau/n + log n) rounds: doubling down to stopFanout(n) walks
// per machine, then leader-driven stitching.
func ChainedWalk(sim *clique.Sim, g *graph.Graph, start, tau int, cfg Config, src *prng.Source) ([]int, error) {
	n := g.N()
	if sim.N() != n {
		return nil, fmt.Errorf("doubling: clique size %d does not match graph size %d", sim.N(), n)
	}
	if start < 0 || start >= n {
		return nil, fmt.Errorf("doubling: start %d out of range [0,%d)", start, n)
	}
	k, err := walkFanout(n, tau)
	if err != nil {
		return nil, err
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("doubling: graph must be connected")
	}
	stop := min(stopFanout(n), k)

	walks, err := double(sim, g, k, stop, cfg, src)
	if err != nil {
		return nil, err
	}

	// Stitch: the leader (machine `start`) consumes one segment per hop.
	// Hop h takes final-index-h walks: walks with distinct final indices
	// are built from disjoint sets of the original length-1 edges (the
	// index trees are disjoint), so the stitched segments are mutually
	// independent even when the walk revisits a machine — which per-machine
	// sequential consumption would not guarantee, because same-index walks
	// at different machines can share suffixes.
	trajectory := []int{start}
	cur, hop := start, 0
	var segment []int
	stitch := &clique.Step[[]int]{
		Name: "doubling/stitch",
		Send: func(o *clique.Out[[]int]) error {
			o.From(cur)
			if hop >= len(walks[cur]) {
				return fmt.Errorf("machine %d exhausted its %d segments", cur, len(walks[cur]))
			}
			w := walks[cur][hop]
			o.Send(start, len(w), w)
			return nil
		},
		Recv:   func(_ int, w []int) { segment = w },
		Encode: func(dst []clique.Word, w []int) []clique.Word { return clique.AppendInts(dst, w...) },
		Decode: func(_ int, w []clique.Word) []int { return clique.Ints(w) },
	}
	for ; hop < stop && len(trajectory) <= tau; hop++ {
		segment = nil
		if err := clique.Run(sim, stitch); err != nil {
			return nil, err
		}
		// The leader stored the segment as it arrived.
		if err := clique.Local(sim, "doubling/stitch-recv", nil); err != nil {
			return nil, err
		}
		if segment == nil {
			return nil, fmt.Errorf("doubling: stitch hop %d delivered no segment", hop)
		}
		if segment[0] != cur {
			return nil, fmt.Errorf("doubling: stitch segment starts at %d, want %d", segment[0], cur)
		}
		trajectory = append(trajectory, segment[1:]...)
		cur = trajectory[len(trajectory)-1]
	}
	if len(trajectory) < tau+1 {
		return nil, fmt.Errorf("doubling: chained walk has %d steps, want %d", len(trajectory)-1, tau)
	}
	return trajectory[:tau+1], nil
}
