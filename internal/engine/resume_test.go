package engine

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestStreamStartIndexResume is the resume primitive's golden contract: a
// stream split into windows by StartIndex reassembles byte-identically — tree
// AND stats — to the single uninterrupted stream, at several worker counts.
// This is what makes mid-stream failover verifiable: a second replica serving
// [j, K) must produce exactly the bytes the dead replica would have.
func TestStreamStartIndexResume(t *testing.T) {
	e := testEngine(t)
	sess, err := e.Open("g")
	if err != nil {
		t.Fatal(err)
	}
	const k = 12
	baseline, err := sess.Collect(context.Background(), StreamRequest{
		K: k, Spec: SamplerSpec{Name: SamplerPhase, MaxWorkers: 1}, SeedBase: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for _, split := range []int{1, 5, k - 1} {
			trees := make([]string, k)
			stats := make([]core.Stats, k)
			for _, win := range []struct{ start, k int }{{0, split}, {split, k - split}} {
				st, err := sess.Stream(context.Background(), StreamRequest{
					K: win.k, Spec: SamplerSpec{Name: SamplerPhase, MaxWorkers: workers}, SeedBase: 9,
					StartIndex: win.start,
				})
				if err != nil {
					t.Fatalf("window [%d,%d) w=%d: %v", win.start, win.start+win.k, workers, err)
				}
				for r := range st.Results() {
					if r.Index < win.start || r.Index >= win.start+win.k {
						t.Fatalf("window [%d,%d) delivered out-of-window index %d", win.start, win.start+win.k, r.Index)
					}
					trees[r.Index] = r.Tree.Encode()
					stats[r.Index] = r.Stats
				}
				if err := st.Err(); err != nil {
					t.Fatalf("window [%d,%d) w=%d: %v", win.start, win.start+win.k, workers, err)
				}
			}
			if !reflect.DeepEqual(trees, encodeAll(baseline)) {
				t.Errorf("split=%d w=%d: spliced trees differ from uninterrupted stream", split, workers)
			}
			if !reflect.DeepEqual(stats, baseline.Stats) {
				t.Errorf("split=%d w=%d: spliced stats differ from uninterrupted stream", split, workers)
			}
		}
	}
}

// TestStartIndexCollectWindow pins Collect's index mapping for resumed
// windows: a Collect at StartIndex j returns densely packed slices whose
// element i is absolute index j+i.
func TestStartIndexCollectWindow(t *testing.T) {
	e := testEngine(t)
	full, err := collectBatch(e, "g", StreamRequest{K: 8, Spec: SamplerSpec{MaxWorkers: 1}, SeedBase: 4})
	if err != nil {
		t.Fatal(err)
	}
	tail, err := collectBatch(e, "g", StreamRequest{K: 3, Spec: SamplerSpec{MaxWorkers: 2}, SeedBase: 4, StartIndex: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got, want := tail.Trees[i].Encode(), full.Trees[5+i].Encode(); got != want {
			t.Errorf("window tree %d (absolute %d) differs from full batch", i, 5+i)
		}
	}
	if !reflect.DeepEqual(tail.Stats, full.Stats[5:]) {
		t.Error("window stats differ from full batch tail")
	}
}

// TestStartIndexValidation rejects malformed windows synchronously.
func TestStartIndexValidation(t *testing.T) {
	e := testEngine(t)
	sess, err := e.Open("g")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Stream(context.Background(), StreamRequest{K: 1, StartIndex: -1}); err == nil {
		t.Error("negative start index accepted")
	}
	if _, err := sess.Stream(context.Background(), StreamRequest{K: 2, StartIndex: maxBatchSize - 1}); err == nil {
		t.Error("index window past the batch cap accepted")
	}
}

// TestInfoDigest pins the graph digest surface: stable for one graph across
// engines, present in both Engine.Info and Session.Info, and different for
// structurally different graphs — the identity cross-replica verification
// and client-side caches key on.
func TestInfoDigest(t *testing.T) {
	a, b := testEngine(t), testEngine(t)
	ia, err := a.Info("g")
	if err != nil {
		t.Fatal(err)
	}
	ib, err := b.Info("g")
	if err != nil {
		t.Fatal(err)
	}
	if ia.Digest == "" || len(ia.Digest) != 64 || !strings.EqualFold(ia.Digest, ib.Digest) {
		t.Errorf("digest not a stable hex sha256: %q vs %q", ia.Digest, ib.Digest)
	}
	sess, err := a.Open("g")
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Info().Digest; got != ia.Digest {
		t.Errorf("session digest %q != engine digest %q", got, ia.Digest)
	}
	if err := a.RegisterFamily("other", "expander", 16, 4); err != nil {
		t.Fatal(err)
	}
	io, err := a.Info("other")
	if err != nil {
		t.Fatal(err)
	}
	if io.Digest == ia.Digest {
		t.Error("different graphs share a digest")
	}
}

// TestWarmup touches every registered graph's prepared state, for the phase
// and the exact sampler alike, so the first request of either after
// readiness finds it resolved: the exact state is built without any exact
// request and shares the phase state's phase-0 power table (one table per
// graph). A second Warmup is a cheap no-op (sync.Once), and sampling after
// Warmup is byte-identical to a never-warmed engine.
func TestWarmup(t *testing.T) {
	samplers := []Sampler{SamplerPhase, SamplerExact}
	cold := testEngine(t)
	baseline := map[Sampler]*BatchResult{}
	for _, name := range samplers {
		res, err := collectBatch(cold, "g", StreamRequest{K: 3, Spec: SamplerSpec{Name: name, MaxWorkers: 1}, SeedBase: 7})
		if err != nil {
			t.Fatal(err)
		}
		baseline[name] = res
	}
	warm := testEngine(t)
	if err := warm.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	ent, err := warm.reg.get("g")
	if err != nil {
		t.Fatal(err)
	}
	if ent.phase == nil || ent.exact == nil {
		t.Fatalf("after Warmup: phase state %v, exact state %v; want both built", ent.phase, ent.exact)
	}
	if a, b := powerTable(ent.phase), powerTable(ent.exact); a == 0 || a != b {
		t.Errorf("exact state's power table %#x is not the phase state's %#x", b, a)
	}
	if err := warm.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, name := range samplers {
		got, err := collectBatch(warm, "g", StreamRequest{K: 3, Spec: SamplerSpec{Name: name, MaxWorkers: 1}, SeedBase: 7})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(encodeAll(got), encodeAll(baseline[name])) || !reflect.DeepEqual(got.Summary, baseline[name].Summary) {
			t.Errorf("%s: warmed engine draws differ from cold engine", name)
		}
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := warm.Warmup(canceled); err == nil {
		t.Error("canceled warmup reported nil")
	}
}

// powerTable is the address of a Prepared's phase-0 power table (0 if it
// holds none). core exports no accessor for it; the test reads the field.
func powerTable(p *core.Prepared) uintptr {
	return reflect.ValueOf(p).Elem().FieldByName("pd0").Pointer()
}
