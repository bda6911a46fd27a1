package doubling

import (
	"fmt"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/walk"
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

// tagSegment carries stitched segments to the leader.
const tagSegment = 16

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
	if !cfg.Fidelity.Valid() {
		return nil, fmt.Errorf("doubling: unknown sim fidelity %q (want %q or %q)", cfg.Fidelity, clique.FidelityCharged, clique.FidelityFull)
	}
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

	// Initialization + doubling down to `stop` walks per machine, exactly
	// as in Walks.
	walks := make([][][]int, n)
	rngs := make([]*prng.Source, n)
	for v := 0; v < n; v++ {
		rngs[v] = src.Split(uint64(v))
	}
	for v := 0; v < n; v++ {
		walks[v] = make([][]int, k)
		for i := 0; i < k; i++ {
			next, err := walk.Step(g, v, rngs[v])
			if err != nil {
				return nil, fmt.Errorf("doubling: %w", err)
			}
			walks[v][i] = []int{v, next}
		}
	}
	t := independenceParam(n)
	leaderRng := src.Split(1 << 60)
	eta := 1
	for k > stop {
		if err := iterate(sim, g, walks, rngs, k, eta, t, cfg, leaderRng); err != nil {
			return nil, err
		}
		k /= 2
		eta *= 2
	}

	// Stitch: the leader (machine `start`) consumes one segment per hop.
	// Hop h takes final-index-h walks: walks with distinct final indices
	// are built from disjoint sets of the original length-1 edges (the
	// index trees are disjoint), so the stitched segments are mutually
	// independent even when the walk revisits a machine — which per-machine
	// sequential consumption would not guarantee, because same-index walks
	// at different machines can share suffixes.
	trajectory := []int{start}
	cur := start
	for hop := 0; hop < stop && len(trajectory) <= tau; hop++ {
		var segment []int
		idx := hop
		if cfg.Fidelity.Charged() {
			// Charged stitch: the hop's segment moves to the leader as a
			// shared slice, charged at its word length; the receive step is
			// computation-only on both paths.
			if idx >= len(walks[cur]) {
				return nil, fmt.Errorf("machine %d exhausted its %d segments", cur, len(walks[cur]))
			}
			w := walks[cur][idx]
			plan := clique.NewCostPlan(n)
			plan.Add(cur, start, len(w))
			if err := sim.ChargedSuperstep("doubling/stitch", plan, nil); err != nil {
				return nil, err
			}
			if err := sim.ChargedSuperstep("doubling/stitch-recv", nil, nil); err != nil {
				return nil, err
			}
			segment = w
			if segment[0] != cur {
				return nil, fmt.Errorf("doubling: stitch segment starts at %d, want %d", segment[0], cur)
			}
			trajectory = append(trajectory, segment[1:]...)
			cur = trajectory[len(trajectory)-1]
			continue
		}
		err := sim.Superstep("doubling/stitch", func(id int, in []clique.Message) ([]clique.Message, error) {
			if id != cur {
				return nil, nil
			}
			if idx >= len(walks[id]) {
				return nil, fmt.Errorf("machine %d exhausted its %d segments", id, len(walks[id]))
			}
			w := walks[id][idx]
			words := make([]clique.Word, 0, len(w))
			for _, v := range w {
				words = append(words, clique.IntWord(v))
			}
			return []clique.Message{{To: start, Tag: tagSegment, Words: words}}, nil
		})
		if err != nil {
			return nil, err
		}
		err = sim.Superstep("doubling/stitch-recv", func(id int, in []clique.Message) ([]clique.Message, error) {
			if id != start {
				return nil, nil
			}
			for _, m := range in {
				if m.Tag != tagSegment {
					continue
				}
				segment = make([]int, len(m.Words))
				for i, w := range m.Words {
					segment[i] = w.Int()
				}
			}
			return nil, nil
		})
		if err != nil {
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
