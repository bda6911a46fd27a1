// Example engine: the Session API — prepared graphs as first-class handles,
// typed SamplerSpec dispatch, and streaming batches. Registering the graph
// pays its precomputation once; every session request after that reuses it,
// and the tree at each index is deterministic in the seed base at any worker
// count even though stream results arrive in completion order.
package main

import (
	"context"
	"fmt"

	spantree "repro"
)

func main() {
	// One-shot: prepare a session on an expander and draw a tree on the
	// simulated clique. (spantree.Sample does exactly this internally.)
	g, err := spantree.Expander(64, 7)
	if err != nil {
		panic(err)
	}
	sess, err := spantree.Prepare(g)
	if err != nil {
		panic(err)
	}
	tree, stats, err := sess.Sample(context.Background(), spantree.PhaseSpec(), 42)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(tree.Edges()), "edges in", stats.Rounds, "simulated rounds")

	// Repeated queries: register the graph in an Engine, open a Session on
	// it, and stream a batch — results arrive as workers finish, tagged by
	// index (0 workers = GOMAXPROCS). The engine prepares the graph's
	// phase-0 state once and every sample reuses it.
	eng, err := spantree.NewEngine(0)
	if err != nil {
		panic(err)
	}
	if err := eng.Register("exp64", g); err != nil {
		panic(err)
	}
	shared, err := eng.Open("exp64")
	if err != nil {
		panic(err)
	}
	st, err := shared.Stream(context.Background(), spantree.StreamRequest{
		K: 100, Spec: spantree.PhaseSpec(), SeedBase: 1,
	})
	if err != nil {
		panic(err)
	}
	streamed := 0
	for range st.Results() {
		streamed++
	}
	if err := st.Err(); err != nil {
		panic(err)
	}
	fmt.Println(streamed, "trees streamed")

	// Collect is the gather-all form: the same stream reassembled by index
	// into a summarized batch, byte-identical to the streamed trees: it
	// repeats the stream above seed-for-seed, so it draws the same trees with
	// the same simulated round counts.
	res, err := shared.Collect(context.Background(), spantree.StreamRequest{
		K: 100, Spec: spantree.PhaseSpec(), SeedBase: 1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Summary.DistinctTrees, "distinct trees,",
		res.Summary.Rounds.Mean, "mean rounds")
	m := eng.Metrics()
	fmt.Println(m.Samples, "samples over", m.Streams, "streams")
}
