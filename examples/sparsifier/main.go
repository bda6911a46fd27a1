// Sparsifier: build a cut sparsifier as a union of random spanning trees.
//
// Graph sparsification is one of the applications motivating random
// spanning tree sampling in the paper's introduction (references [23, 33,
// 41]): the union of k uniformly random spanning trees preserves every cut
// within a multiplicative error that shrinks with k, while keeping only
// O(kn) edges. This example measures that on a dense graph: it samples k
// trees, overlays them, and compares random cut weights (scaled by m/(kn))
// in the sparsifier against the original graph.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"

	spantree "repro"
)

func main() {
	const (
		n     = 48
		k     = 8
		trial = 25
	)
	g, err := spantree.ErdosRenyi(n, 0.5, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original graph: n=%d m=%d\n", g.N(), g.M())

	// Overlay k random spanning trees; multi-edges accumulate weight.
	sess, err := spantree.Prepare(g)
	if err != nil {
		log.Fatal(err)
	}
	sparse, err := spantree.NewGraph(n)
	if err != nil {
		log.Fatal(err)
	}
	sparseEdges := 0
	for i := 0; i < k; i++ {
		tree, _, err := sess.Sample(context.Background(), spantree.SpecFor(spantree.SamplerPhase), uint64(100+i))
		if err != nil {
			log.Fatal(err)
		}
		for _, e := range tree.Edges() {
			if sparse.HasEdge(e.U, e.V) {
				if err := sparse.SetWeight(e.U, e.V, sparse.Weight(e.U, e.V)+1); err != nil {
					log.Fatal(err)
				}
			} else {
				if err := sparse.AddEdge(e.U, e.V, 1); err != nil {
					log.Fatal(err)
				}
				sparseEdges++
			}
		}
	}
	fmt.Printf("sparsifier: %d distinct edges from %d trees (%.0f%% of original)\n",
		sparseEdges, k, 100*float64(sparseEdges)/float64(g.M()))

	// Compare random cuts. Each tree crosses every cut at least once; the
	// scaling m-over-expected-tree-crossings is estimated per cut from the
	// original graph's density.
	rng := rand.New(rand.NewPCG(9, 9))
	var worst float64 = 1
	fmt.Printf("%-8s %12s %14s %8s\n", "cut", "G weight", "sparse (scaled)", "ratio")
	for t := 0; t < trial; t++ {
		side := make([]bool, n)
		for v := range side {
			side[v] = rng.IntN(2) == 0
		}
		var cutG, cutS float64
		for _, e := range g.Edges() {
			if side[e.U] != side[e.V] {
				cutG += e.Weight
			}
		}
		for _, e := range sparse.Edges() {
			if side[e.U] != side[e.V] {
				cutS += e.Weight
			}
		}
		if cutG == 0 {
			continue
		}
		// Scale: the sparsifier holds k trees of n-1 edges vs m original.
		scaled := cutS * float64(g.M()) / float64(k*(n-1))
		ratio := scaled / cutG
		if ratio > worst {
			worst = ratio
		}
		if 1/ratio > worst {
			worst = 1 / ratio
		}
		if t < 8 {
			fmt.Printf("%-8d %12.0f %14.1f %8.2f\n", t, cutG, scaled, ratio)
		}
	}
	fmt.Printf("worst cut distortion over %d random cuts: %.2fx\n", trial, worst)
}
