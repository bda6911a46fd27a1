package engine

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/core"
)

// persistEngine boots an engine against dir's durable store with a short
// walk length (fast phase-0 builds) and w workers.
func persistEngine(t *testing.T, dir string, w int) *Engine {
	t.Helper()
	store, err := blobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return New(Options{Workers: w, Config: core.Config{WalkLength: 256}, Store: store})
}

// TestKillRestartGolden is the tentpole's golden contract: boot, register,
// sample; restart against the same data dir; the restarted engine serves
// byte-identical trees AND Stats, and does so from restored snapshots — no
// cold core.Prepare (asserted via the blobstore counters). Run at 1, 4, and
// GOMAXPROCS workers: determinism and restore correctness are worker-count
// independent.
func TestKillRestartGolden(t *testing.T) {
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		dir := t.TempDir()
		req := StreamRequest{K: 6, Spec: SamplerSpec{Name: SamplerPhase, MaxWorkers: w}, SeedBase: 11}
		exactReq := StreamRequest{K: 3, Spec: SamplerSpec{Name: SamplerExact, MaxWorkers: w}, SeedBase: 5}

		e1 := persistEngine(t, dir, w)
		if err := e1.RegisterFamily("g", "expander", 16, 3); err != nil {
			t.Fatal(err)
		}
		cold, err := collectBatch(e1, "g", req)
		if err != nil {
			t.Fatal(err)
		}
		coldExact, err := collectBatch(e1, "g", exactReq)
		if err != nil {
			t.Fatal(err)
		}
		m1 := e1.Metrics()
		if m1.Blobstore.Hits != 0 || m1.Blobstore.Misses < 2 {
			t.Fatalf("w=%d first boot counters: %+v", w, m1.Blobstore)
		}
		// Graceful drain: waits out write-behind saves.
		if err := e1.Close(); err != nil {
			t.Fatal(err)
		}
		if got := e1.Metrics().Blobstore; got.Puts < 2 {
			t.Fatalf("w=%d snapshots not persisted: %+v", w, got)
		}

		// "Kill": e1 is abandoned; a new process boots on the same dir.
		e2 := persistEngine(t, dir, w)
		if got := e2.Keys(); !reflect.DeepEqual(got, []string{"g"}) {
			t.Fatalf("w=%d registry not rehydrated: %v", w, got)
		}
		warm, err := collectBatch(e2, "g", req)
		if err != nil {
			t.Fatal(err)
		}
		warmExact, err := collectBatch(e2, "g", exactReq)
		if err != nil {
			t.Fatal(err)
		}
		m2 := e2.Metrics()
		if m2.Blobstore.Misses != 0 {
			t.Fatalf("w=%d warm restart recomputed prepared state: %+v", w, m2.Blobstore)
		}
		if m2.Blobstore.Hits < 2 {
			t.Fatalf("w=%d warm restart did not load snapshots: %+v", w, m2.Blobstore)
		}
		if !reflect.DeepEqual(encodeAll(cold), encodeAll(warm)) {
			t.Fatalf("w=%d trees differ across restart", w)
		}
		if !reflect.DeepEqual(cold.Stats, warm.Stats) {
			t.Fatalf("w=%d stats differ across restart", w)
		}
		if !reflect.DeepEqual(encodeAll(coldExact), encodeAll(warmExact)) {
			t.Fatalf("w=%d exact trees differ across restart", w)
		}
		if !reflect.DeepEqual(coldExact.Stats, warmExact.Stats) {
			t.Fatalf("w=%d exact stats differ across restart", w)
		}
		if err := e2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestartMatchesInMemory pins that persistence never changes bytes: a
// restarted persistent engine and a plain in-memory engine produce identical
// batches.
func TestRestartMatchesInMemory(t *testing.T) {
	req := StreamRequest{K: 4, Spec: SamplerSpec{Name: SamplerPhase, MaxWorkers: 2}, SeedBase: 21}
	mem := testEngine(t)
	want, err := collectBatch(mem, "g", req)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	e1 := persistEngine(t, dir, 2)
	if err := e1.RegisterFamily("g", "expander", 16, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := collectBatch(e1, "g", req); err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := persistEngine(t, dir, 2)
	got, err := collectBatch(e2, "g", req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(encodeAll(want), encodeAll(got)) || !reflect.DeepEqual(want.Stats, got.Stats) {
		t.Fatal("restored engine diverges from the in-memory engine")
	}
}

// TestCorruptSnapshotFallsBackToCold damages every blob on disk between
// boots: the restarted engine discards them, recomputes cold, still serves
// identical bytes, and rewrites the blobs for the boot after.
func TestCorruptSnapshotFallsBackToCold(t *testing.T) {
	dir := t.TempDir()
	req := StreamRequest{K: 4, Spec: SamplerSpec{Name: SamplerPhase, MaxWorkers: 2}, SeedBase: 9}
	e1 := persistEngine(t, dir, 2)
	if err := e1.RegisterFamily("g", "expander", 16, 3); err != nil {
		t.Fatal(err)
	}
	cold, err := collectBatch(e1, "g", req)
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in the middle of every blob.
	var damaged int
	err = filepath.WalkDir(filepath.Join(dir, "blobs"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".blob" {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		raw[len(raw)/2] ^= 0x20
		damaged++
		return os.WriteFile(path, raw, 0o644)
	})
	if err != nil || damaged == 0 {
		t.Fatalf("damaging blobs: %d damaged, err %v", damaged, err)
	}

	e2 := persistEngine(t, dir, 2)
	warm, err := collectBatch(e2, "g", req)
	if err != nil {
		t.Fatal(err)
	}
	m := e2.Metrics()
	if m.Blobstore.CorruptDiscards == 0 {
		t.Fatalf("damaged blobs not discarded: %+v", m.Blobstore)
	}
	if m.Blobstore.Hits != 0 {
		t.Fatalf("damaged blob served: %+v", m.Blobstore)
	}
	if !reflect.DeepEqual(encodeAll(cold), encodeAll(warm)) || !reflect.DeepEqual(cold.Stats, warm.Stats) {
		t.Fatal("cold fallback diverges from original bytes")
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	// Third boot: the rewritten blobs serve again.
	e3 := persistEngine(t, dir, 2)
	again, err := collectBatch(e3, "g", req)
	if err != nil {
		t.Fatal(err)
	}
	m3 := e3.Metrics()
	if m3.Blobstore.Hits == 0 || m3.Blobstore.Misses != 0 {
		t.Fatalf("rewritten blobs not served: %+v", m3.Blobstore)
	}
	if !reflect.DeepEqual(encodeAll(cold), encodeAll(again)) {
		t.Fatal("rewritten snapshot diverges")
	}
}

// TestDeregisterDropsManifest pins the manifest lifecycle: deregistered
// graphs stay gone across restarts, and re-registration re-persists.
func TestDeregisterDropsManifest(t *testing.T) {
	dir := t.TempDir()
	e1 := persistEngine(t, dir, 1)
	if err := e1.RegisterFamily("a", "expander", 16, 3); err != nil {
		t.Fatal(err)
	}
	if err := e1.RegisterFamily("b", "grid", 9, 0); err != nil {
		t.Fatal(err)
	}
	if !e1.Deregister("a") {
		t.Fatal("deregister failed")
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := persistEngine(t, dir, 1)
	if got := e2.Keys(); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("restarted keys %v, want [b]", got)
	}
	if _, err := e2.Graph("a"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("deregistered graph resurrected: %v", err)
	}
}

// TestWarmReadinessAt96 is the ISSUE's acceptance bar: at n = 96, a warm
// restart reaches first-sample readiness purely from restored state — the
// blobstore shows hits and zero misses, i.e. core.Prepare never ran.
func TestWarmReadinessAt96(t *testing.T) {
	if testing.Short() {
		t.Skip("n=96 prepare is seconds of matrix squarings")
	}
	dir := t.TempDir()
	req := StreamRequest{K: 1, Spec: SamplerSpec{Name: SamplerPhase, MaxWorkers: 1}, SeedBase: 1}
	e1 := persistEngine(t, dir, 1)
	if err := e1.RegisterFamily("g", "expander", 96, 7); err != nil {
		t.Fatal(err)
	}
	cold, err := collectBatch(e1, "g", req)
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := persistEngine(t, dir, 1)
	warm, err := collectBatch(e2, "g", req)
	if err != nil {
		t.Fatal(err)
	}
	m := e2.Metrics()
	if m.Blobstore.Misses != 0 || m.Blobstore.Hits < 1 {
		t.Fatalf("warm restart at n=96 re-prepared: %+v", m.Blobstore)
	}
	if !reflect.DeepEqual(encodeAll(cold), encodeAll(warm)) || !reflect.DeepEqual(cold.Stats, warm.Stats) {
		t.Fatal("n=96 restart diverges")
	}
}

// TestInMemoryEngineUnchanged pins the default path: no store, Close is a
// no-op, blobstore metrics stay zero.
func TestInMemoryEngineUnchanged(t *testing.T) {
	e := testEngine(t)
	if _, err := collectBatch(e, "g", StreamRequest{K: 2, Spec: SpecFor(SamplerPhase), SeedBase: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.Blobstore.Hits != 0 || m.Blobstore.Misses != 0 || m.Blobstore.Puts != 0 {
		t.Fatalf("in-memory engine touched a store: %+v", m.Blobstore)
	}
}
