// PageRank: estimate stationary visit frequencies from doubling-built
// walks.
//
// The paper's Section 3 points out that O(polylog n)-length walks built by
// the doubling technique are "of particular interest for approximating
// PageRank" [7, 57]. This example builds moderately long random walks with
// the load-balanced doubling algorithm and estimates each vertex's
// stationary probability from visit frequencies, comparing against the
// exact stationary distribution deg(v)/2m.
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/clique"
	"repro/internal/doubling"
	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/walk"
)

func main() {
	const (
		n   = 40
		tau = 4096
	)
	src := prng.New(11)
	// An irregular graph so the stationary distribution is interesting:
	// a wheel has one hub of degree n-1 and a rim of degree-3 vertices.
	g, err := graph.Wheel(n)
	if err != nil {
		log.Fatal(err)
	}

	sim := clique.MustNew(n)
	traj, err := doubling.ChainedWalk(sim, g, 0, tau, doubling.Config{}, src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built a %d-step walk in %d simulated rounds (naive port: %d rounds)\n",
		tau, sim.Rounds(), tau)

	visits := make([]float64, n)
	for _, v := range traj {
		visits[v]++
	}
	for v := range visits {
		visits[v] /= float64(len(traj))
	}
	exact := walk.StationaryDistribution(g)

	var maxErr float64
	fmt.Printf("%-8s %12s %12s\n", "vertex", "estimated", "exact")
	for v := 0; v < n; v += n / 8 {
		fmt.Printf("%-8d %12.4f %12.4f\n", v, visits[v], exact[v])
	}
	for v := 0; v < n; v++ {
		if e := math.Abs(visits[v] - exact[v]); e > maxErr {
			maxErr = e
		}
	}
	fmt.Printf("max absolute error across all vertices: %.4f\n", maxErr)
}
