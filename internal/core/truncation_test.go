package core

import (
	"fmt"
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
		sub, err := schur.NewSubset(n, allVertices(n))
		if err != nil {
			t.Fatal(err)
		}
		r := newPhaseRunner(clique.MustNew(n), g, cfg, nil, &Stats{})
		r.beginPhase(sub, 0)
		if err := r.beginSegment(0, src.Split(7)); err != nil {
			t.Fatal(err)
		}
		// Run a few levels; at each, compare the distributed search result
		// against the brute-force reference before placing midpoints.
		checkTruncationLevels(t, r, 4, func() string { return fmt.Sprintf("seed %d", seed) })
	}
}

// TestTruncationAfterPreSeenSegment is TestDistributedTruncationMatchesSequential
// on a second Las Vegas segment, where the vertices the first segment
// visited are pre-seen: they count toward rho, and their reappearance is
// never a first occurrence (appendix §5.1). It runs one segment, marks its
// walk as the phase's walked set, starts a second segment from its end, and
// compares every level's search with the sequential reference.
func TestTruncationAfterPreSeenSegment(t *testing.T) {
	levels := 0
	for seed := uint64(0); seed < 200; seed++ {
		src := prng.New(seed)
		n := 6 + src.Intn(6)
		g, err := graph.ErdosRenyi(n, 0.5, src)
		if err != nil {
			continue
		}
		cfg, err := Config{WalkLength: 4, Rho: 3 + src.Intn(3)}.withDefaults(n)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := schur.NewSubset(n, allVertices(n))
		if err != nil {
			t.Fatal(err)
		}
		r := newPhaseRunner(clique.MustNew(n), g, cfg, nil, &Stats{})
		r.beginPhase(sub, 0)
		if err := r.beginSegment(0, src.Split(0)); err != nil {
			t.Fatal(err)
		}
		first, err := r.run()
		if err != nil {
			t.Fatal(err)
		}
		r.markWalked(first)
		if r.walkedN >= r.rho {
			continue // the first segment met the budget: no extension
		}
		if err := r.beginSegment(first[len(first)-1], src.Split(1)); err != nil {
			t.Fatal(err)
		}
		levels += checkTruncationLevels(t, r, 8, func() string { return fmt.Sprintf("seed %d segment 1", seed) })
	}
	t.Logf("%d second-segment levels checked", levels)
	if levels < 100 {
		t.Errorf("only %d second-segment levels checked, want at least 100", levels)
	}
}

// allVertices returns 0, 1, ..., n-1: the members of phase 0's subset.
func allVertices(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// checkTruncationLevels runs up to maxLevels filling levels of r's segment
// and, at each, requires the distributed truncation search to agree with
// bruteForceTruncation before placing the midpoints. It returns the number
// of levels checked.
func checkTruncationLevels(t *testing.T, r *phaseRunner, maxLevels int, what func() string) int {
	t.Helper()
	level := 0
	for ; level < maxLevels && r.spacing > 1 && len(r.walk) >= 2; level++ {
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
			t.Fatalf("%s level %d: distributed truncation %d, sequential reference %d (walk %v)",
				what(), level, got, want, r.walk)
		}
		if err := r.placeMidpoints(got); err != nil {
			t.Fatal(err)
		}
	}
	return level
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
		ps := r.orderedPS[r.slotIdx[j]]
		filled = append(filled, r.walk[j-1], ps.seq[occ[key]])
		occ[key]++
	}
	filled = append(filled, r.walk[k])
	seen := make(map[int]struct{})
	for idx, v := range filled {
		if r.walked.has(v) {
			continue // pre-seen vertices never trigger a first occurrence
		}
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			if len(seen)+r.walkedN == r.rho {
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
	sub, err := schur.NewSubset(8, allVertices(8))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		r := newPhaseRunner(clique.MustNew(8), g, cfg, nil, &Stats{})
		r.beginPhase(sub, 0)
		if err := r.beginSegment(0, src.Split(uint64(trial))); err != nil {
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
			r.tabulatePrefixes()
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
