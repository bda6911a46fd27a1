package doubling

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/walk"
)

// independenceC is the constant c in the t = 8c·log n independence
// parameter of the routing hash and in the Lemma 10 bound.
const independenceC = 1

// Config parameterizes a doubling run. The zero value is the paper's
// setting: hash-balanced routing.
type Config struct {
	// Unbalanced reproduces the unbalanced merging of [7], where walks meet
	// at the machine of the suffix's origin vertex, instead of the paper's
	// hash-based load balancing. Both modes consume the rng identically, so
	// they build the same walks; only the charged rounds and loads differ.
	Unbalanced bool
}

// Result holds the walks produced by a doubling run: Walks[v] is a
// length-tau random walk (tau+1 vertices) starting at vertex v. Walks
// originating at different vertices are generally NOT independent (they
// share merged segments), exactly as in the paper.
type Result struct {
	Walks [][]int
	// Tau is the walk length (steps).
	Tau int
}

// MaxWalkSlots bounds the doubling state: n times the walk length rounded
// up to a power of two, the count of length-1 walks Walks and ChainedWalk
// allocate before they merge them. One SampleTree draw at the budget peaks
// at about 440 MB RSS; DefaultSegmentLength fits for every n up to 256.
const MaxWalkSlots = 1 << 21

// walkFanout returns k, the smallest power of two >= tau: the walk count
// per machine the doubling starts from. It refuses tau < 1 and any n·k over
// MaxWalkSlots; tau is bounded before it is rounded, so nothing overflows.
func walkFanout(n, tau int) (int, error) {
	if tau < 1 {
		return 0, fmt.Errorf("doubling: walk length must be >= 1, got %d", tau)
	}
	if tau <= MaxWalkSlots/n {
		if k := 1 << bits.Len(uint(tau-1)); k <= MaxWalkSlots/n {
			return k, nil
		}
	}
	return 0, fmt.Errorf("doubling: walk length %d on %d vertices needs more than the budget of %d walk slots (n times the length rounded up to a power of two)", tau, n, MaxWalkSlots)
}

// Walks runs the doubling algorithm on the simulated clique, building a
// length-tau random walk from every vertex. It returns the walks and
// charges all communication on sim.
func Walks(sim *clique.Sim, g *graph.Graph, tau int, cfg Config, src *prng.Source) (*Result, error) {
	n := g.N()
	if sim.N() != n {
		return nil, fmt.Errorf("doubling: clique size %d does not match graph size %d", sim.N(), n)
	}
	// k = smallest power of two >= tau; eta = 1.
	k, err := walkFanout(n, tau)
	if err != nil {
		return nil, err
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("doubling: graph must be connected")
	}
	walks, err := double(sim, g, k, 1, cfg, src)
	if err != nil {
		return nil, err
	}

	out := &Result{Walks: make([][]int, n), Tau: tau}
	for v := 0; v < n; v++ {
		w := walks[v][0]
		if len(w) < tau+1 {
			return nil, fmt.Errorf("doubling: machine %d ended with a %d-step walk, want >= %d", v, len(w)-1, tau)
		}
		out.Walks[v] = w[:tau+1]
	}
	return out, nil
}

// double runs the doubling on a validated instance: every machine starts
// from k length-1 walks and each iteration halves the walk count per
// machine and doubles the walk length, until stop walks per machine
// remain. walks[v][i] is W^{i+1}_v (0-indexed internally).
func double(sim *clique.Sim, g *graph.Graph, k, stop int, cfg Config, src *prng.Source) ([][][]int, error) {
	n := g.N()
	// Initialization: every vertex samples k length-1 walks (random
	// incident edges) locally — no communication.
	walks := make([][][]int, n)
	for v := 0; v < n; v++ {
		rng := src.Split(uint64(v))
		walks[v] = make([][]int, k)
		for i := 0; i < k; i++ {
			next, err := walk.Step(g, v, rng)
			if err != nil {
				return nil, fmt.Errorf("doubling: %w", err)
			}
			walks[v][i] = []int{v, next}
		}
	}
	t := independenceParam(n)
	leaderRng := src.Split(1 << 60)
	for eta := 1; k > stop; k, eta = k/2, eta*2 {
		if err := iterate(sim, g, walks, k, eta, t, cfg, leaderRng); err != nil {
			return nil, err
		}
	}
	return walks, nil
}

// routedWalk is a walk tuple in flight between machines: the origin
// machine, the paper's 1-based walk index, and the trajectory. It packs
// into len(w)+2 words.
type routedWalk struct {
	origin, index int
	w             []int
}

func encodeWalk(dst []clique.Word, rw routedWalk) []clique.Word {
	return clique.AppendInts(dst, append([]int{rw.origin, rw.index}, rw.w...)...)
}

func decodeWalk(_ int, words []clique.Word) routedWalk {
	return routedWalk{origin: words[0].Int(), index: words[1].Int(), w: clique.Ints(words[2:])}
}

// iterate performs one doubling iteration (steps 1-5 of the load-balanced
// algorithm in §3).
func iterate(sim *clique.Sim, g *graph.Graph, walks [][][]int, k, eta, t int, cfg Config, leaderRng *prng.Source) error {
	n := g.N()
	// Step 1: machine 1 samples and broadcasts the hash seed (O(log² n)
	// bits = t words); every machine derives the same function from it.
	seed := prng.SampleKWiseSeed(t, leaderRng)
	err := clique.RunBroadcast(sim, 0, len(seed), func(dst []clique.Word) []clique.Word {
		for _, x := range seed {
			dst = append(dst, clique.Word(x))
		}
		return dst
	})
	if err != nil {
		return err
	}
	hash, err := prng.NewKWiseHash(t, k+1, n, seed)
	if err != nil {
		return err
	}
	route := func(vertex, index int) int {
		if cfg.Unbalanced {
			// Unbalanced variant of [7]: pairs meet at the suffix origin.
			return vertex
		}
		return hash.Eval(vertex, index)
	}

	// Steps 2-3: route prefixes (i <= k/2) by their endpoint and suffixes
	// (i > k/2) by their origin, so that W^i_u (ending at z) and
	// W^{k-i+1}_z land on the same machine.
	prefixes := make([][]routedWalk, n)
	suffixes := make([][]routedWalk, n)
	err = clique.Run(sim, &clique.Step[routedWalk]{
		Name: "doubling/route",
		Send: func(o *clique.Out[routedWalk]) error {
			for id := range walks {
				o.From(id)
				for i, w := range walks[id] {
					index1 := i + 1 // the paper's 1-based walk index
					var to int
					if index1 <= k/2 {
						to = route(w[len(w)-1], k-index1+1)
					} else {
						to = route(id, index1)
					}
					o.Send(to, len(w)+2, routedWalk{origin: id, index: index1, w: w})
				}
				walks[id] = nil // all walks shipped out
			}
			return nil
		},
		Recv: func(m int, rw routedWalk) {
			if rw.index <= k/2 {
				prefixes[m] = append(prefixes[m], rw)
			} else {
				suffixes[m] = append(suffixes[m], rw)
			}
		},
		Encode: encodeWalk, Decode: decodeWalk,
	})
	if err != nil {
		return err
	}

	// Step 4: merge. A suffix W^j_z serves every prefix W^i_u with
	// i = k-j+1 that ends at z; the merged walk returns to the prefix
	// origin u tagged with index i.
	type key struct{ origin, index int }
	mergedAt := make([][]routedWalk, n)
	err = clique.Run(sim, &clique.Step[routedWalk]{
		Name: "doubling/merge",
		Send: func(o *clique.Out[routedWalk]) error {
			for m := 0; m < n; m++ {
				o.From(m)
				sufs := make(map[key][]int, len(suffixes[m]))
				for _, s := range suffixes[m] {
					sufs[key{s.origin, s.index}] = s.w
				}
				for _, p := range prefixes[m] {
					end := p.w[len(p.w)-1]
					suffix, ok := sufs[key{end, k - p.index + 1}]
					if !ok {
						return fmt.Errorf("machine %d: no suffix W^%d_%d for prefix W^%d_%d", m, k-p.index+1, end, p.index, p.origin)
					}
					merged := make([]int, 0, len(p.w)+len(suffix)-1)
					merged = append(merged, p.w...)
					merged = append(merged, suffix[1:]...)
					o.Send(p.origin, len(merged)+2, routedWalk{origin: p.origin, index: p.index, w: merged})
				}
			}
			return nil
		},
		Recv:   func(m int, rw routedWalk) { mergedAt[m] = append(mergedAt[m], rw) },
		Encode: encodeWalk, Decode: decodeWalk,
	})
	if err != nil {
		return err
	}

	// Step 5: machines store their merged walks.
	return clique.Local(sim, "doubling/store", func() error {
		for id := 0; id < n; id++ {
			walks[id] = make([][]int, k/2)
			for _, m := range mergedAt[id] {
				if m.origin != id {
					return fmt.Errorf("machine %d received walk for %d", id, m.origin)
				}
				if m.index < 1 || m.index > k/2 {
					return fmt.Errorf("machine %d received out-of-range walk index %d", id, m.index)
				}
				if len(m.w) != 2*eta+1 {
					return fmt.Errorf("machine %d received %d-step walk, want %d", id, len(m.w)-1, 2*eta)
				}
				walks[id][m.index-1] = m.w
			}
			for i, w := range walks[id] {
				if w == nil {
					return fmt.Errorf("machine %d missing merged walk %d", id, i+1)
				}
			}
		}
		return nil
	})
}

func intLog2Ceil(n int) int {
	l := 0
	for (1 << l) < n {
		l++
	}
	return l
}

// independenceParam returns t = 8c·⌈log2 n⌉ (at least 2), the independence
// of the routing hash on an n-clique.
func independenceParam(n int) int {
	return max(8*independenceC*intLog2Ceil(n), 2)
}

// Lemma10Bound returns the high-probability bound 16·c·k·log n on tuples
// received by any machine in one routing step (Lemma 10).
func Lemma10Bound(k, n int) int {
	return 16 * independenceC * k * max(intLog2Ceil(n), 1)
}

// PredictedRounds returns Theorem 2's round complexity shape for a
// length-tau walk on an n-clique: O(tau/n · log tau · log n) when tau is
// large, O(log tau) otherwise (constants normalized to 1).
func PredictedRounds(n, tau int) float64 {
	logTau := math.Log2(float64(tau) + 1)
	logN := math.Log2(float64(n) + 1)
	perIter := float64(tau) / float64(n) * logN
	if perIter < 1 {
		perIter = 1
	}
	return perIter * logTau
}
