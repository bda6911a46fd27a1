package walk

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/prng"
)

// Step samples one random walk step from u: a neighbor chosen with
// probability proportional to the connecting edge's weight (§1.1; footnote 1
// for the weighted case). It binary-searches the graph's lazily built
// cumulative-weight prefix array — O(log deg) per step instead of the O(deg)
// linear scan, the difference between usable and unusable on dense graphs —
// and, because the prefix sums are accumulated in the same order the scan
// would accumulate them, draws exactly the neighbor the scan would draw for
// every (graph, seed) pair (stepLinear in the tests pins this).
func Step(g *graph.Graph, u int, src *prng.Source) (int, error) {
	if u < 0 || u >= g.N() {
		return 0, fmt.Errorf("walk: vertex %d out of range [0,%d)", u, g.N())
	}
	deg := g.Degree(u)
	if deg <= 0 {
		return 0, fmt.Errorf("walk: vertex %d is isolated", u)
	}
	cum := g.CumulativeWeights(u)
	r := src.Float64() * deg
	i := sort.Search(len(cum), func(i int) bool { return r < cum[i] })
	if i == len(cum) {
		// Floating point slack: take the last neighbor.
		i = len(cum) - 1
	}
	return g.NeighborAt(u, i).To, nil
}

// Walk returns the trajectory of a length-steps random walk from start,
// including the start vertex (so the result has steps+1 entries).
func Walk(g *graph.Graph, start, steps int, src *prng.Source) ([]int, error) {
	if steps < 0 {
		return nil, fmt.Errorf("walk: negative length %d", steps)
	}
	out := make([]int, 0, steps+1)
	out = append(out, start)
	cur := start
	for i := 0; i < steps; i++ {
		next, err := Step(g, cur, src)
		if err != nil {
			return nil, err
		}
		out = append(out, next)
		cur = next
	}
	return out, nil
}

// CoverWalk walks from start until every vertex has been visited, returning
// the trajectory. maxSteps bounds the walk; exceeding it is an error (use a
// bound well above the expected cover time, which is at most ~2*n*m for
// connected graphs).
func CoverWalk(g *graph.Graph, start, maxSteps int, src *prng.Source) ([]int, error) {
	if !g.IsConnected() {
		return nil, fmt.Errorf("walk: cover walk on disconnected graph never terminates")
	}
	seen := make([]bool, g.N())
	seen[start] = true
	remaining := g.N() - 1
	out := make([]int, 0, g.N()*4)
	out = append(out, start)
	cur := start
	for steps := 0; remaining > 0; steps++ {
		if steps >= maxSteps {
			return nil, fmt.Errorf("walk: cover walk exceeded %d steps with %d vertices unvisited", maxSteps, remaining)
		}
		next, err := Step(g, cur, src)
		if err != nil {
			return nil, err
		}
		out = append(out, next)
		if !seen[next] {
			seen[next] = true
			remaining--
		}
		cur = next
	}
	return out, nil
}

// EstimateCoverTime returns the mean number of steps of trials independent
// cover walks from start. maxSteps bounds each walk.
func EstimateCoverTime(g *graph.Graph, start, trials, maxSteps int, src *prng.Source) (float64, error) {
	if trials < 1 {
		return 0, fmt.Errorf("walk: need at least 1 trial, got %d", trials)
	}
	var total float64
	for i := 0; i < trials; i++ {
		w, err := CoverWalk(g, start, maxSteps, src.Split(uint64(i)))
		if err != nil {
			return 0, err
		}
		total += float64(len(w) - 1)
	}
	return total / float64(trials), nil
}

// FirstVisitEdges extracts the Aldous-Broder tree edges from a trajectory:
// for every vertex other than the start, the edge by which it was first
// visited (the theorem of Aldous [1] and Broder [12] that the paper builds
// on). The trajectory must visit every one of n vertices; otherwise an
// error is returned.
func FirstVisitEdges(traj []int, n int) ([]graph.Edge, error) {
	if len(traj) == 0 {
		return nil, fmt.Errorf("walk: empty trajectory")
	}
	visited := make([]bool, n)
	visited[traj[0]] = true
	edges := make([]graph.Edge, 0, n-1)
	for i := 1; i < len(traj); i++ {
		v := traj[i]
		if v < 0 || v >= n {
			return nil, fmt.Errorf("walk: trajectory vertex %d out of range [0,%d)", v, n)
		}
		if !visited[v] {
			visited[v] = true
			u := traj[i-1]
			e := graph.Edge{U: min(u, v), V: max(u, v), Weight: 1}
			edges = append(edges, e)
		}
	}
	if len(edges) != n-1 {
		return nil, fmt.Errorf("walk: trajectory covers %d of %d vertices", len(edges)+1, n)
	}
	return edges, nil
}

// StationaryDistribution returns the stationary distribution of the random
// walk: pi(v) = degree(v) / (2 * total weight).
func StationaryDistribution(g *graph.Graph) []float64 {
	total := 2 * g.TotalWeight()
	out := make([]float64, g.N())
	for v := 0; v < g.N(); v++ {
		out[v] = g.Degree(v) / total
	}
	return out
}
