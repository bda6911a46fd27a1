package doubling

import (
	"fmt"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/spanning"
	"repro/internal/walk"
)

// maxSegments caps how many segments SampleTree concatenates while waiting
// for the walk to cover the graph.
const maxSegments = 64

// newSim builds SampleTree's simulator. Tests swap in
// clique.NewMaterializing to run the same declarations on the materializing
// executor.
var newSim = clique.MustNew

// TreeConfig parameterizes the Corollary 1 spanning tree sampler.
type TreeConfig struct {
	// Doubling configures the walk construction.
	Doubling Config
	// SegmentLength is the walk length built per doubling run (0:
	// DefaultSegmentLength(n)).
	SegmentLength int
}

// DefaultSegmentLength is the segment length SampleTree uses on an n-vertex
// graph when TreeConfig.SegmentLength is 0: 4·n·⌈log2 n⌉, the O(n log n)
// cover-time scale of the corollary's target graph families.
func DefaultSegmentLength(n int) int {
	return 4 * n * max(intLog2Ceil(n), 1)
}

// CheckSegmentLength reports, without allocating, whether SampleTree can
// run on an n-vertex graph with segment length l (0:
// DefaultSegmentLength(n)): l must be >= 1 and its doubling state within
// MaxWalkSlots.
func CheckSegmentLength(n, l int) error {
	if l == 0 {
		l = DefaultSegmentLength(n)
	}
	_, err := walkFanout(n, l)
	return err
}

// TreeStats reports the cost of a SampleTree run.
type TreeStats struct {
	Rounds     int
	Supersteps int
	TotalWords int64
	Segments   int
	WalkSteps  int
}

// SampleTree samples an exactly uniform spanning tree via Aldous-Broder on
// doubling-built walks (Corollary 1): it builds length-SegmentLength walks
// from every vertex, follows the one starting at vertex 0, and keeps
// extending it (from its endpoint, using the next doubling run's walks)
// until the concatenated walk covers the graph. For a graph with cover time
// τ this takes Õ(τ/n) simulated rounds with high probability.
//
// The extension-until-cover rule keeps the sampler exact: the concatenation
// of segments is one long random walk by the Markov property, so the
// first-visit edges are exactly Aldous-Broder's.
func SampleTree(g *graph.Graph, cfg TreeConfig, src *prng.Source) (*spanning.Tree, *TreeStats, error) {
	n := g.N()
	if n == 1 {
		tree, err := spanning.NewTree(1, nil)
		return tree, &TreeStats{}, err
	}
	if cfg.SegmentLength == 0 {
		cfg.SegmentLength = DefaultSegmentLength(n)
	}
	sim := newSim(n)

	cur := 0 // the walk of interest starts at vertex 0
	visited := make([]bool, n)
	visited[0] = true
	remaining := n - 1
	trajectory := []int{0}
	segments := 0

	for seg := 0; remaining > 0; seg++ {
		segments = seg + 1
		if seg >= maxSegments {
			return nil, nil, fmt.Errorf("doubling: walk failed to cover the graph within %d segments of length %d; raise SegmentLength", maxSegments, cfg.SegmentLength)
		}
		segment, err := ChainedWalk(sim, g, cur, cfg.SegmentLength, cfg.Doubling, src.Split(uint64(seg)))
		if err != nil {
			return nil, nil, err
		}
		for _, v := range segment[1:] {
			trajectory = append(trajectory, v)
			if !visited[v] {
				visited[v] = true
				remaining--
			}
		}
		cur = segment[len(segment)-1]
	}

	edges, err := walk.FirstVisitEdges(trajectory, n)
	if err != nil {
		return nil, nil, err
	}
	tree, err := spanning.NewTree(n, edges)
	if err != nil {
		return nil, nil, err
	}
	stats := &TreeStats{
		Rounds:     sim.Rounds(),
		Supersteps: sim.Supersteps(),
		TotalWords: sim.TotalWords(),
		WalkSteps:  len(trajectory) - 1,
		Segments:   segments,
	}
	return tree, stats, nil
}
