// Uniformity: audit samplers against the exactly counted uniform
// distribution over spanning trees.
//
// This is Lemma 6 made tangible: on a small graph every spanning tree can
// be counted exactly (Matrix-Tree theorem), so the empirical distribution
// of any sampler can be compared to uniform in total variation distance.
// The paper's samplers and the classical baselines pass; the §1.4
// random-weight MST strawman fails, exactly as the paper warns.
package main

import (
	"context"
	"fmt"
	"log"

	spantree "repro"
)

func main() {
	// C4 plus a chord: exactly 8 spanning trees.
	g, err := spantree.Cycle(4)
	if err != nil {
		log.Fatal(err)
	}
	if err := g.AddUnitEdge(0, 2); err != nil {
		log.Fatal(err)
	}
	count, err := spantree.CountSpanningTrees(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("audit graph: C4+chord, %s spanning trees\n\n", count)

	// One session serves every sampler. The short walk length applies only
	// to the phase and exact samplers; the others ignore it.
	sess, err := spantree.Prepare(g, spantree.WithWalkLength(256))
	if err != nil {
		log.Fatal(err)
	}

	// The congested clique samplers get a modest sample budget (they are
	// simulations); the instant baselines and the strawman get a larger one
	// so the strawman's bias clears the detection threshold.
	samplers := []struct {
		name    string
		sampler spantree.Sampler
		samples int
	}{
		{"phase (Theorem 1)", spantree.SamplerPhase, 4000},
		{"exact (appendix)", spantree.SamplerExact, 4000},
		{"doubling (Cor. 1)", spantree.SamplerLowCover, 4000},
		{"Wilson", spantree.SamplerWilson, 24000},
		{"Aldous-Broder", spantree.SamplerAldousBroder, 24000},
		{"MST strawman (§1.4)", spantree.SamplerMST, 24000},
	}

	fmt.Printf("%-22s %10s %10s %10s\n", "sampler", "TV", "noise", "verdict")
	for _, s := range samplers {
		seed := uint64(0)
		res, err := spantree.AuditUniformity(g, s.samples, func() (*spantree.Tree, error) {
			seed++
			t, _, err := sess.Sample(context.Background(), spantree.SpecFor(s.sampler), seed)
			return t, err
		})
		if err != nil {
			log.Fatalf("%s: %v", s.name, err)
		}
		verdict := "uniform"
		if !res.Pass(3) {
			verdict = "BIASED"
		}
		fmt.Printf("%-22s %10.4f %10.4f %10s\n", s.name, res.TV, res.Noise, verdict)
	}
}
