package main

import (
	"context"
	"fmt"
	"net/http"

	spantree "repro"
	"repro/internal/graph"
)

// verifyTrees is the size of the fixed verification set.
const verifyTrees = 64

// inProcess opens a session on a fresh in-process engine with spantreed's
// default configuration, registered with the same graph.
func inProcess(g *graph.Graph) (*spantree.Session, error) {
	eng, err := spantree.NewEngine(0)
	if err != nil {
		return nil, err
	}
	if err := eng.Register(graphKey, g); err != nil {
		return nil, err
	}
	return eng.Open(graphKey)
}

// verification is the outcome of the fixed verification set.
type verification struct {
	attempted, failed int
	mismatches        int   // requests whose response differs from in-process sampling
	rounds            []int // charged rounds of every verified tree
	firstErr          error
}

func (v *verification) fail(mismatch bool, err error) {
	v.failed++
	if mismatch {
		v.mismatches++
	}
	if v.firstErr == nil {
		v.firstErr = err
	}
}

// verify streams the fixed verification set (verifyTrees trees at seed
// bases derived from the workload seed) through every endpoint in addrs and
// requires each tree and its rounds to be byte-identical to in-process
// Session.Collect on the same request. A request the sampler itself fails
// must fail the same way in process; it then counts as failed, not as a
// mismatch.
func verify(ctx context.Context, hc *http.Client, addrs []string, w workload, g *graph.Graph, seed uint64) (verification, error) {
	var v verification
	sess, err := inProcess(g)
	if err != nil {
		return v, err
	}
	for j := 0; j < verifyTrees/w.k; j++ {
		body := streamBody{K: w.k, Sampler: w.sampler, SeedBase: seedBase(seed, w, clientVerify, j)}
		want, wantErr := sess.Collect(ctx, spantree.StreamRequest{K: w.k, Spec: spantree.SpecFor(spantree.Sampler(w.sampler)), SeedBase: body.SeedBase})
		if ctx.Err() != nil {
			return v, ctx.Err()
		}
		for _, addr := range addrs {
			v.attempted++
			got := stream(ctx, hc, addr, body, g)
			switch {
			case wantErr != nil:
				v.fail(got.err == nil, fmt.Errorf("verification request %d via %s: in process: %v; over HTTP: %v", j, addr, wantErr, got.err))
				continue
			case got.err != nil:
				v.fail(got.wrong, fmt.Errorf("verification request %d via %s: %w", j, addr, got.err))
				continue
			}
			matched := true
			for i := 0; i < w.k && matched; i++ {
				if got.trees[i] != want.Trees[i].Encode() || got.rounds[i] != want.Stats[i].Rounds {
					v.fail(true, fmt.Errorf("verification request %d via %s: index %d differs from in-process Session.Collect", j, addr, i))
					matched = false
				}
			}
			if matched && addr == addrs[0] {
				v.rounds = append(v.rounds, got.rounds...)
			}
		}
	}
	return v, nil
}
