package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/schur"
)

// bulkCoverage counts the levels and candidates TestBulkChargesMatchDeclaredSteps
// checked, and how often each case it must reach came up.
type bulkCoverage struct {
	levels, candidates int
	manyPairs          int // levels with more distinct pairs than machines
	preSeen            int // levels of a segment started after a walked one
	leaderHosts        int // candidates whose tally reaches the leader as a vertex host
	leaderOwnsMf       int // candidates whose mf owner is the leader
}

// lockstep is one segment's sampler state on each executor: charged runs
// the collection steps in their charged forms, full sends every declared
// message on the materializing executor.
type lockstep struct{ charged, full *phaseRunner }

func newLockstep(g *graph.Graph, cfg Config, sub *schur.Subset) lockstep {
	n := g.N()
	mk := func(sim *clique.Sim) *phaseRunner {
		sim.EnableTrace()
		r := newPhaseRunner(sim, g, cfg, nil, &Stats{})
		r.beginPhase(sub, 0)
		return r
	}
	return lockstep{mk(clique.MustNew(n)), mk(clique.NewMaterializing(n))}
}

// both runs step on each executor's runner.
func (ls lockstep) both(t *testing.T, step func(r *phaseRunner) error) {
	t.Helper()
	for _, r := range []*phaseRunner{ls.charged, ls.full} {
		if err := step(r); err != nil {
			t.Fatal(err)
		}
	}
}

// lastSteps returns the last k per-superstep stats r's simulator recorded.
func lastSteps(r *phaseRunner, k int) []clique.StepStat {
	st := r.sim.Stats()
	return st[len(st)-k:]
}

// multiset returns the leader's collected midpoint multiset, sorted, and
// its mf value.
func multiset(r *phaseRunner) ([]int, int) {
	r.expandRow()
	var ms []int
	for _, v := range r.counts.touched {
		for range r.counts.val[v] {
			ms = append(ms, v)
		}
	}
	slices.Sort(ms)
	return ms, r.bsMf
}

// checkLevels runs up to maxLevels filling levels on both executors. At
// each it collects counts at every truncation candidate of the level, a
// superset of those the binary search probes, and requires the same four
// collection StepStats, the same predicate, the same leader multiset and
// the same mf value; then it requires the same truncation point, the same
// search trace and the same placed walk.
func (ls lockstep) checkLevels(t *testing.T, maxLevels int, cov *bulkCoverage, what string) {
	t.Helper()
	c, f := ls.charged, ls.full
	for level := 0; level < maxLevels && c.spacing > 1 && len(c.walk) >= 2; level++ {
		ls.both(t, (*phaseRunner).assignPairs)
		ls.both(t, (*phaseRunner).generateMidpoints)
		ls.both(t, func(r *phaseRunner) error { r.tabulatePrefixes(); return nil })
		at := fmt.Sprintf("%s level %d", what, level)
		cov.levels++
		if len(c.pairOrder) > c.n {
			cov.manyPairs++
		}
		for ell := int64(0); ell <= int64(2*(len(c.walk)-1)); ell++ {
			var ok [2]bool
			for i, r := range []*phaseRunner{c, f} {
				if err := r.collectCounts(ell); err != nil {
					t.Fatal(err)
				}
				var err error
				if ok[i], err = r.checkTruncation(ell); err != nil {
					t.Fatal(err)
				}
			}
			cs, fs := lastSteps(c, 4), lastSteps(f, 4)
			if !reflect.DeepEqual(cs, fs) {
				t.Fatalf("%s candidate %d: collection steps differ:\ncharged       %+v\nmaterializing %+v", at, ell, cs, fs)
			}
			if ok[0] != ok[1] {
				t.Fatalf("%s candidate %d: predicate %v charged, %v materializing", at, ell, ok[0], ok[1])
			}
			cm, cmf := multiset(c)
			fm, fmf := multiset(f)
			if !slices.Equal(cm, fm) || cmf != fmf {
				t.Fatalf("%s candidate %d: leader multiset %v mf %d charged, %v mf %d materializing", at, ell, cm, cmf, fm, fmf)
			}
			cov.candidates++
			s := slotsInPrefix(ell)
			if s >= 1 && c.pairMachine[c.slotIdx[s]] == c.leader {
				cov.leaderOwnsMf++
			}
			if slices.ContainsFunc(cm, func(v int) bool { return c.hosts[v] == c.leader }) {
				cov.leaderHosts++
			}
		}
		before := len(c.sim.Stats())
		var ell [2]int64
		for i, r := range []*phaseRunner{c, f} {
			var err error
			if ell[i], err = r.findTruncationPoint(); err != nil {
				t.Fatal(err)
			}
		}
		if ell[0] != ell[1] {
			t.Fatalf("%s: truncation point %d charged, %d materializing", at, ell[0], ell[1])
		}
		if cs, fs := c.sim.Stats()[before:], f.sim.Stats()[before:]; !reflect.DeepEqual(cs, fs) {
			t.Fatalf("%s: search steps differ:\ncharged       %+v\nmaterializing %+v", at, cs, fs)
		}
		ls.both(t, func(r *phaseRunner) error { return r.placeMidpoints(ell[0]) })
		if !slices.Equal(c.walk, f.walk) {
			t.Fatalf("%s: placed walks differ: %v charged, %v materializing", at, c.walk, f.walk)
		}
	}
}

// TestBulkChargesMatchDeclaredSteps is the differential test of the
// truncation search's charged forms: on ER and 3-regular graphs, at every
// candidate of every level, the charged executor's bulk charges must match
// the materializing executor's declared messages step for step. It covers
// levels with more distinct pairs than machines (walk length 64 and ρ = n,
// so one machine owns several pairs), second Las Vegas segments whose
// first segment's vertices are pre-seen, collections where the leader hosts
// a tallied vertex, and collections whose mf owner is the leader.
func TestBulkChargesMatchDeclaredSteps(t *testing.T) {
	var cov bulkCoverage
	for seed := uint64(0); seed < 80; seed++ {
		src := prng.New(seed)
		n := 6 + src.Intn(7)
		var g *graph.Graph
		var err error
		family := "er"
		if seed%2 == 0 {
			g, err = graph.ErdosRenyi(n, 0.5, src)
		} else {
			family = "3-regular"
			n += n % 2
			g, err = graph.RandomRegular(n, 3, src)
		}
		if err != nil {
			continue
		}
		sub, err := schur.NewSubset(n, allVertices(n))
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("%s n=%d seed %d", family, n, seed)

		// One long segment whose late levels have many distinct pairs.
		cfg, err := Config{WalkLength: 64, Rho: n}.withDefaults(n)
		if err != nil {
			t.Fatal(err)
		}
		ls := newLockstep(g, cfg, sub)
		ls.both(t, func(r *phaseRunner) error { return r.beginSegment(0, src.Split(7)) })
		ls.checkLevels(t, 8, &cov, what)

		// A second segment after a walked one, as a Las Vegas phase runs it.
		cfg, err = Config{WalkLength: 4, Rho: 3 + src.Intn(3)}.withDefaults(n)
		if err != nil {
			t.Fatal(err)
		}
		ls = newLockstep(g, cfg, sub)
		ls.both(t, func(r *phaseRunner) error { return r.beginSegment(0, src.Split(0)) })
		ls.checkLevels(t, 8, &cov, what+" segment 0")
		c := ls.charged
		if !slices.Equal(c.walk, ls.full.walk) {
			t.Fatalf("%s: first segments differ", what)
		}
		end := c.walk[len(c.walk)-1]
		ls.both(t, func(r *phaseRunner) error { r.markWalked(r.walk); return nil })
		if c.walkedN >= c.rho {
			continue
		}
		ls.both(t, func(r *phaseRunner) error { return r.beginSegment(end, src.Split(1)) })
		levels := cov.levels
		ls.checkLevels(t, 8, &cov, what+" segment 1")
		cov.preSeen += cov.levels - levels
	}
	t.Logf("%+v", cov)
	for _, c := range []struct {
		name string
		got  int
	}{
		{"levels with more pairs than machines", cov.manyPairs},
		{"pre-seen segment levels", cov.preSeen},
		{"candidates with the leader hosting a tallied vertex", cov.leaderHosts},
		{"candidates with the leader owning mf", cov.leaderOwnsMf},
	} {
		if c.got == 0 {
			t.Errorf("no %s checked", c.name)
		}
	}
}
