package core

import (
	"testing"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/schur"
)

// TestDistributedTruncationMatchesSequential is the white-box validation of
// Algorithm 3: after midpoints are generated for one level, the truncation
// point found by the distributed binary search must equal the one computed
// by the sequential specification — interleave the midpoints into the walk
// and find the first grid index whose prefix contains rho distinct
// vertices.
func TestDistributedTruncationMatchesSequential(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		src := prng.New(seed)
		n := 6 + src.Intn(6)
		g, err := graph.ErdosRenyi(n, 0.5, src)
		if err != nil {
			continue
		}
		cfg, err := Config{WalkLength: 64, Rho: 2 + src.Intn(3)}.withDefaults(n)
		if err != nil {
			t.Fatal(err)
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		sub, err := schur.NewSubset(n, all)
		if err != nil {
			t.Fatal(err)
		}
		sim := clique.MustNew(n)
		r, err := newPhaseRunner(sim, g, cfg, sub, 0, 0, nil, src.Split(7), &Stats{}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Run a few levels; at each, compare the distributed search result
		// against the brute-force reference before placing midpoints.
		for level := 0; level < 4 && r.spacing > 1; level++ {
			if len(r.walk) < 2 {
				break
			}
			if err := r.assignPairs(); err != nil {
				t.Fatal(err)
			}
			if err := r.generateMidpoints(); err != nil {
				t.Fatal(err)
			}
			want := bruteForceTruncation(r)
			got, err := r.findTruncationPoint()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("seed %d level %d: distributed truncation %d, sequential reference %d (walk %v)",
					seed, level, got, want, r.walk)
			}
			if err := r.placeMidpoints(got); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// bruteForceTruncation computes the truncation point directly from the
// leader's walk and the pair machines' sequences: build the filled walk
// W_i^+ and return the first grid index whose prefix holds rho distinct
// vertices (first occurrence of the rho-th), or the full length.
func bruteForceTruncation(r *phaseRunner) int64 {
	k := len(r.walk) - 1
	filled := make([]int, 0, 2*k+1)
	occ := make(map[pairKey]int)
	for j := 1; j <= k; j++ {
		key := r.slotPair[j]
		ps := r.sc.orderedPS[r.slotIdx[j]]
		filled = append(filled, r.walk[j-1], ps.seq[occ[key]])
		occ[key]++
	}
	filled = append(filled, r.walk[k])
	seen := make(map[int]struct{})
	for idx, v := range filled {
		if _, ok := r.preSeen[v]; ok {
			continue // pre-seen vertices never trigger a first occurrence
		}
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			if len(seen)+len(r.preSeen) == r.rho {
				return int64(idx)
			}
		}
	}
	return int64(2 * k)
}

// TestCheckTruncationMonotone verifies the predicate of Algorithm 3 is
// monotone in the truncation candidate (true up to ell*, false beyond),
// which is what makes binary search sound.
func TestCheckTruncationMonotone(t *testing.T) {
	src := prng.New(5)
	g, err := graph.ErdosRenyi(8, 0.5, src)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Config{WalkLength: 64, Rho: 3}.withDefaults(8)
	if err != nil {
		t.Fatal(err)
	}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	sub, err := schur.NewSubset(8, all)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		sim := clique.MustNew(8)
		r, err := newPhaseRunner(sim, g, cfg, sub, 0, 0, nil, src.Split(uint64(trial)), &Stats{}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Advance two levels so the walk has structure.
		for level := 0; level < 2 && r.spacing > 1 && len(r.walk) >= 2; level++ {
			if err := r.assignPairs(); err != nil {
				t.Fatal(err)
			}
			if err := r.generateMidpoints(); err != nil {
				t.Fatal(err)
			}
			if level < 1 {
				ell, err := r.findTruncationPoint()
				if err != nil {
					t.Fatal(err)
				}
				if err := r.placeMidpoints(ell); err != nil {
					t.Fatal(err)
				}
				continue
			}
			// Evaluate the predicate at every candidate and check the
			// true-prefix/false-suffix structure.
			hi := int64(2 * (len(r.walk) - 1))
			lastTrue := int64(-1)
			firstFalse := int64(-1)
			for ell := int64(0); ell <= hi; ell++ {
				if err := r.collectCounts(ell); err != nil {
					t.Fatal(err)
				}
				ok, err := r.checkTruncation(ell)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					lastTrue = ell
					if firstFalse != -1 {
						t.Fatalf("trial %d: predicate true at %d after false at %d", trial, ell, firstFalse)
					}
				} else if firstFalse == -1 {
					firstFalse = ell
				}
			}
			if lastTrue == -1 {
				t.Fatalf("trial %d: predicate false everywhere", trial)
			}
		}
	}
}
