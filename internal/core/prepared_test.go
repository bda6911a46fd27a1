package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/prng"
	"repro/internal/spanning"
)

// TestPreparedCacheGolden is the core-level contract behind the engine's
// golden tests: for both the Theorem 1 config and the appendix's exact
// variant, the Prepared path (cached phase-0 state, replayed charges) and
// the fully cold package-level Sample agree tree-for-tree and
// Stats-for-Stats on every seed, including a repeated one.
func TestPreparedCacheGolden(t *testing.T) {
	g, err := graph.Expander(24, prng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{WalkLength: 512}
	cases := []struct {
		name    string
		prepare func() (*Prepared, error)
		cold    func(src *prng.Source) (*spanning.Tree, *Stats, error)
	}{
		{
			name:    "phase",
			prepare: func() (*Prepared, error) { return Prepare(g, cfg) },
			cold:    func(src *prng.Source) (*spanning.Tree, *Stats, error) { return Sample(g, cfg, src) },
		},
		{
			name:    "exact",
			prepare: func() (*Prepared, error) { return PrepareExact(g, cfg) },
			cold:    func(src *prng.Source) (*spanning.Tree, *Stats, error) { return SampleExact(g, cfg, src) },
		},
	}
	for _, tc := range cases {
		prep, err := tc.prepare()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// Seed 40 appears twice: sampling leaves no state behind.
		for _, seed := range []uint64{40, 41, 42, 40} {
			coldTree, coldStats, err := tc.cold(prng.New(seed))
			if err != nil {
				t.Fatalf("%s cold seed %d: %v", tc.name, seed, err)
			}
			warmTree, warmStats, err := prep.Sample(prng.New(seed))
			if err != nil {
				t.Fatalf("%s warm seed %d: %v", tc.name, seed, err)
			}
			if warmTree.Encode() != coldTree.Encode() {
				t.Errorf("%s seed %d: trees diverge between cold and warm", tc.name, seed)
			}
			if !reflect.DeepEqual(warmStats, coldStats) {
				t.Errorf("%s seed %d: warm stats differ from cold:\n%+v\n%+v", tc.name, seed, warmStats, coldStats)
			}
		}
	}
}

// TestExactSharesPhaseTable pins one phase-0 table per graph: the exact
// variant of a phase Prepared reuses its *PowerDyadic whenever the two
// configurations square the same table, and in every case draws the bytes
// PrepareExact draws under the same caller Config — including an explicit
// Rho, which must survive, and a truncation unit, which the exact variant
// drops and therefore cannot share. Comparing configs also pins the default
// exact ρ = ⌊n^(2/3)⌋: deriving it from the phase Prepared's defaulted
// ⌊√n⌋ would differ at n = 24.
func TestExactSharesPhaseTable(t *testing.T) {
	g, err := graph.Expander(24, prng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		cfg   Config
		share bool
	}{
		{"default", Config{WalkLength: 512}, true},
		{"explicit-rho", Config{WalkLength: 512, Rho: 3}, true},
		{"trunc-delta", Config{WalkLength: 512, TruncDelta: 1e-12}, false},
	}
	for _, tc := range cases {
		phase, err := Prepare(g, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		viaPhase, err := phase.Exact()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		alone, err := PrepareExact(g, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if shared := viaPhase.pd0 == phase.pd0; shared != tc.share {
			t.Errorf("%s: Exact shares the phase table = %v, want %v", tc.name, shared, tc.share)
		}
		if !reflect.DeepEqual(viaPhase.Config(), alone.Config()) {
			t.Errorf("%s: Exact config %+v, PrepareExact config %+v", tc.name, viaPhase.Config(), alone.Config())
		}
		for _, seed := range []uint64{40, 41} {
			aTree, aStats, err := viaPhase.Sample(prng.New(seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			bTree, bStats, err := alone.Sample(prng.New(seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			if aTree.Encode() != bTree.Encode() || !reflect.DeepEqual(aStats, bStats) {
				t.Errorf("%s seed %d: Exact and PrepareExact draw different bytes", tc.name, seed)
			}
		}
	}
	// n = 1 builds no table, so there is nothing to share.
	solo, err := graph.New(1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(solo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exact(); err != nil {
		t.Errorf("n=1 Exact: %v", err)
	}
}

// TestFailedPhaseEndsItsSpan draws on a 128-cycle with walk length 2 and
// rho = n under Las Vegas: 64 segments could reach 129 vertices, but a
// 128-step walk on the cycle all but never covers it, so phase 0 runs out
// of extensions and the draw fails. The failed phase's core/phase span must
// still end when the draw returns, not stay open until the trace finishes:
// a span started after the call must begin after every phase span has
// ended. (The 200-cycle at walk length 4 fails the same way, but its 64
// segments overflow the trace's span cap before the marker.)
func TestFailedPhaseEndsItsSpan(t *testing.T) {
	g, err := graph.Cycle(128)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(g, Config{WalkLength: 2, Rho: 128, LasVegas: true})
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(1, 1)
	tr := tracer.StartForced("core/test", "")
	_, _, err = p.SampleWith(prng.New(1), SampleOpts{Trace: tr})
	if err == nil || !strings.Contains(err.Error(), "Las Vegas extensions") {
		t.Fatalf("draw error %v, want running out of Las Vegas extensions", err)
	}
	tr.StartSpan("marker").End()
	time.Sleep(time.Millisecond) // the trace finishes strictly after the marker
	tr.Finish()
	snap := tracer.Snapshot(1)[0]
	var marker float64
	for _, sp := range snap.Spans {
		if sp.Name == "marker" {
			marker = sp.StartUS
		}
	}
	phases := 0
	for _, sp := range snap.Spans {
		if sp.Name != "core/phase" {
			continue
		}
		phases++
		if end := sp.StartUS + sp.DurationUS; end > marker {
			t.Errorf("phase %d span ends at %.1fµs, after the marker started at %.1fµs", sp.Attrs["phase"], end, marker)
		}
	}
	if phases == 0 {
		t.Error("no core/phase span recorded")
	}
}

// TestUnreachableLasVegasRhoRejected: with walk length 2, 64 Las Vegas
// segments see at most 1 + 64*2 = 129 vertices, so rho = 200 on a 200-cycle
// could never be reached and Prepare refuses the Config instead of letting
// every draw fail.
func TestUnreachableLasVegasRhoRejected(t *testing.T) {
	g, err := graph.Cycle(200)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Prepare(g, Config{WalkLength: 2, Rho: 200, LasVegas: true})
	if err == nil || !strings.Contains(err.Error(), "rho 200 is out of reach") {
		t.Fatalf("Prepare error %v, want rho 200 out of reach", err)
	}
}

// BenchmarkPreparedSample times one warm draw, with its allocations, on the
// serving benchmark's graph (3-regular, n = 96, graph seed 11) for the
// phase sampler and for the appendix's exact variant. Draw i uses seed i,
// so a fixed -benchtime Nx draws the same trees on every run.
func BenchmarkPreparedSample(b *testing.B) {
	const n = 96
	g, err := graph.RandomRegular(n, 3, prng.New(11).Split(n))
	if err != nil {
		b.Fatal(err)
	}
	phase, err := Prepare(g, Config{})
	if err != nil {
		b.Fatal(err)
	}
	exact, err := phase.Exact()
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		p    *Prepared
	}{{"phase", phase}, {"exact", exact}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := bc.p.Sample(prng.New(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPreparedSampleAllocs bounds a warm draw's allocations on
// BenchmarkPreparedSample's graph (3-regular, n = 96, graph seed 11). A
// warm draw takes its sampler state from the Prepared's pool, so what it
// allocates is its own output and the matrix headers the scratch pool
// hands out, not the state.
func TestPreparedSampleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const n = 96
	g, err := graph.RandomRegular(n, 3, prng.New(11).Split(n))
	if err != nil {
		t.Fatal(err)
	}
	phase, err := Prepare(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := phase.Exact()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		p     *Prepared
		bound float64
	}{{"phase", phase, 1300}, {"exact", exact, 600}} {
		seed := uint64(0)
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := c.p.Sample(prng.New(seed)); err != nil {
				t.Fatal(err)
			}
			seed++
		})
		t.Logf("%s: %.0f allocations per draw", c.name, allocs)
		if allocs > c.bound {
			t.Errorf("%s: %.0f allocations per warm draw, want at most %.0f", c.name, allocs, c.bound)
		}
	}
}

// drawBytes is one draw's outcome as bytes: the encoded tree and JSON
// Stats, or the error.
func drawBytes(tree *spanning.Tree, st *Stats, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	js, _ := json.Marshal(st) // a Stats always marshals
	return tree.Encode() + "\n" + string(js)
}

// freshDraw draws with src on a sampler state built for this draw alone.
func freshDraw(p *Prepared, src *prng.Source) string {
	return drawBytes(newPhaseRunner(newSim(p.n), p.g, p.cfg, p, &Stats{}).draw(src))
}

// TestPooledDrawsMatchFreshRunners is the sampler-state pool's hygiene
// check. Phase, exact and Las Vegas (walk length 16) draws run at once,
// three goroutines per Prepared, and each must equal the same draw on a
// fresh sampler state byte for byte. Then one sampler state draws seed
// after seed on the 128-cycle with walk length 2 under Las Vegas: at ρ =
// 128 (TestFailedPhaseEndsItsSpan's configuration) every draw runs out of
// extensions, and at ρ = 8 some draws do and the next ones succeed; each
// draw, failed or not, must equal a fresh state's.
func TestPooledDrawsMatchFreshRunners(t *testing.T) {
	g, err := graph.RandomRegular(32, 3, prng.New(32))
	if err != nil {
		t.Fatal(err)
	}
	phase, err := Prepare(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := phase.Exact()
	if err != nil {
		t.Fatal(err)
	}
	lasVegas, err := PrepareExact(g, Config{WalkLength: 16})
	if err != nil {
		t.Fatal(err)
	}
	const draws, workers = 12, 3
	preps := []*Prepared{phase, exact, lasVegas}
	want := make([][]string, len(preps))
	got := make([][]string, len(preps))
	for pi, p := range preps {
		want[pi] = make([]string, draws)
		got[pi] = make([]string, draws)
		for i := range draws {
			want[pi][i] = freshDraw(p, prng.New(uint64(i)))
		}
	}
	var wg sync.WaitGroup
	for pi, p := range preps {
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < draws; i += workers {
					got[pi][i] = drawBytes(p.Sample(prng.New(uint64(i))))
				}
			}()
		}
	}
	wg.Wait()
	for pi := range preps {
		for i := range draws {
			if got[pi][i] != want[pi][i] {
				t.Errorf("Prepared %d draw %d: pooled concurrent draw differs from a fresh state's:\n%s\nwant\n%s", pi, i, got[pi][i], want[pi][i])
			}
		}
	}

	cycle, err := graph.Cycle(128)
	if err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for _, rho := range []int{128, 8} {
		p, err := Prepare(cycle, Config{WalkLength: 2, Rho: rho, LasVegas: true})
		if err != nil {
			t.Fatal(err)
		}
		r := newPhaseRunner(nil, p.g, p.cfg, p, nil)
		failed := false
		for seed := uint64(0); seed < 8; seed++ {
			r.sim, r.stats = newSim(p.n), &Stats{}
			tree, st, err := r.draw(prng.New(seed))
			reused := drawBytes(tree, st, err)
			if fresh := freshDraw(p, prng.New(seed)); reused != fresh {
				t.Errorf("rho %d seed %d: reused state drew\n%s\nwant\n%s", rho, seed, reused, fresh)
			}
			if err == nil && failed {
				recovered++
			}
			failed = err != nil
			if rho == 128 && !failed {
				t.Errorf("rho 128 seed %d: draw did not run out of Las Vegas extensions", seed)
			}
		}
	}
	if recovered == 0 {
		t.Error("no draw succeeded right after a failed one")
	}
}
