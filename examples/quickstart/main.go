// Quickstart: sample a uniform spanning tree of a random graph on the
// simulated congested clique and inspect the cost statistics.
package main

import (
	"context"
	"fmt"
	"log"

	spantree "repro"
)

func main() {
	// A connected Erdős–Rényi graph on 32 vertices.
	g, err := spantree.ErdosRenyi(32, 0.25, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: n=%d m=%d\n", g.N(), g.M())

	// How many spanning trees does it have? (Matrix-Tree theorem, exact.)
	count, err := spantree.CountSpanningTrees(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spanning trees: %s\n", count)

	// Prepare a session on the graph, then sample one tree approximately
	// uniformly with the paper's phase algorithm.
	sess, err := spantree.Prepare(g)
	if err != nil {
		log.Fatal(err)
	}
	phase := spantree.SpecFor(spantree.SamplerPhase)
	tree, stats, err := sess.Sample(context.Background(), phase, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sampled tree: %s\n", tree.Encode())
	fmt.Printf("simulated congested clique cost: %d rounds over %d phases (%d message words)\n",
		stats.Rounds, stats.Phases, stats.TotalWords)

	// The same draw is reproducible from the seed.
	again, _, err := sess.Sample(context.Background(), phase, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deterministic given the seed: %v\n", tree.Encode() == again.Encode())
}
