package engine

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// persistEngine boots an engine over dir's registry manifest with a short
// walk length (fast phase-0 builds) and w workers.
func persistEngine(t *testing.T, dir string, w int) *Engine {
	t.Helper()
	return New(Options{Workers: w, Config: core.Config{WalkLength: 256}, DataDir: dir})
}

// TestKillRestartGolden is the restart contract: boot, register, sample;
// boot again over the same data dir; the restarted engine comes back with
// the same registry and serves byte-identical trees AND Stats for both
// prepared samplers. Run at 1, 4, and GOMAXPROCS workers: determinism is
// worker-count independent.
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
	e2 := persistEngine(t, dir, 2)
	got, err := collectBatch(e2, "g", req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(encodeAll(want), encodeAll(got)) || !reflect.DeepEqual(want.Stats, got.Stats) {
		t.Fatal("restarted engine diverges from the in-memory engine")
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
	e2 := persistEngine(t, dir, 1)
	if got := e2.Keys(); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("restarted keys %v, want [b]", got)
	}
	if _, err := e2.Graph("a"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("deregistered graph resurrected: %v", err)
	}
}

// TestInMemoryEngineUnchanged pins the default path: without a data dir
// registrations keep no manifest.
func TestInMemoryEngineUnchanged(t *testing.T) {
	e := testEngine(t)
	if _, err := collectBatch(e, "g", StreamRequest{K: 2, Spec: SpecFor(SamplerPhase), SeedBase: 1}); err != nil {
		t.Fatal(err)
	}
	if e.manifest != nil {
		t.Fatalf("in-memory engine keeps a manifest: %+v", e.manifest)
	}
}

// TestParentDataDirBoots boots over testdata/datadir-v1, a data dir exactly
// as an older build left it: a version-1 manifest.json plus a blobs/ tree of
// prepared-state snapshots this build no longer reads. The engine must
// rehydrate the graph (digest intact), sample the same bytes as an in-memory
// engine for both prepared samplers, and leave blobs/ untouched.
func TestParentDataDirBoots(t *testing.T) {
	dir := t.TempDir()
	for rel, data := range readTree(t, "testdata/datadir-v1") {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blobsBefore := readTree(t, filepath.Join(dir, "blobs"))
	if len(blobsBefore) == 0 {
		t.Fatal("fixture has no blobs")
	}

	e := persistEngine(t, dir, 2)
	if got := e.Keys(); !reflect.DeepEqual(got, []string{"w6"}) {
		t.Fatalf("rehydrated keys %v, want [w6]", got)
	}
	info, err := e.Info("w6")
	if err != nil {
		t.Fatal(err)
	}
	const wantDigest = "eff17e7a1cb7bfec8a743746e6eb6610565c9c3669eec461b4bcf5775be44b46"
	if info.Digest != wantDigest {
		t.Fatalf("digest %s, want %s", info.Digest, wantDigest)
	}
	g, err := graph.FromEdgeList(6, [][]float64{{0, 1, 1}, {1, 2, 2}, {2, 3, 1}, {3, 4, 1.5}, {4, 5, 1}, {5, 0, 1}, {0, 3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	mem := New(Options{Workers: 2, Config: core.Config{WalkLength: 256}})
	if err := mem.Register("w6", g); err != nil {
		t.Fatal(err)
	}
	for _, s := range []Sampler{SamplerPhase, SamplerExact} {
		req := StreamRequest{K: 4, Spec: SpecFor(s), SeedBase: 3}
		want, err := collectBatch(mem, "w6", req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := collectBatch(e, "w6", req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(encodeAll(want), encodeAll(got)) || !reflect.DeepEqual(want.Stats, got.Stats) {
			t.Fatalf("%s: data-dir engine diverges from the in-memory engine", s)
		}
	}
	if err := e.RegisterFamily("c", "cycle", 5, 0); err != nil {
		t.Fatal(err)
	}
	if got := readTree(t, filepath.Join(dir, "blobs")); !reflect.DeepEqual(got, blobsBefore) {
		t.Fatal("blobs/ changed")
	}
}

// readTree maps every file under root, by path relative to root, to its
// contents.
func readTree(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(root, path)
		out[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func squareGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdgeList(4, [][]float64{{0, 1, 1.5}, {1, 2, 1.5}, {2, 3, 1.5}, {3, 0, 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := squareGraph(t)
	if err := saveManifest(dir, &manifest{Graphs: []graphRecord{recordGraph("ring", g)}}); err != nil {
		t.Fatal(err)
	}
	got, err := loadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != manifestVersion || len(got.Graphs) != 1 || got.Graphs[0].Key != "ring" {
		t.Fatalf("manifest: %+v", got)
	}
	rebuilt, err := got.Graphs[0].build()
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Digest() != g.Digest() {
		t.Fatal("rebuilt graph digests differently")
	}
}

func TestManifestMissingIsEmpty(t *testing.T) {
	m, err := loadManifest(t.TempDir())
	if err != nil || len(m.Graphs) != 0 {
		t.Fatalf("fresh manifest: %+v, %v", m, err)
	}
}

func TestManifestCorruptIsDiscarded(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, manifestName)
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := loadManifest(dir)
	if err != nil || len(m.Graphs) != 0 {
		t.Fatalf("corrupt manifest load: %+v, %v", m, err)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt manifest not renamed aside: %v", err)
	}
	// A graph re-registered after the discard saves a fresh manifest.
	if err := saveManifest(dir, &manifest{Graphs: []graphRecord{recordGraph("g", squareGraph(t))}}); err != nil {
		t.Fatal(err)
	}
	if m, err := loadManifest(dir); err != nil || len(m.Graphs) != 1 {
		t.Fatalf("rewritten manifest: %+v, %v", m, err)
	}
}

func TestManifestStaleVersionDiscarded(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, manifestName)
	if err := os.WriteFile(path, []byte(`{"version": 99, "graphs": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := loadManifest(dir)
	if err != nil || len(m.Graphs) != 0 {
		t.Fatalf("stale manifest load: %+v, %v", m, err)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("stale manifest not renamed aside: %v", err)
	}
}

func TestManifestBuildRejectsTamper(t *testing.T) {
	rec := recordGraph("g", squareGraph(t))
	rec.Edges[0][2] = 9.75
	if _, err := rec.build(); err == nil {
		t.Fatal("tampered record rebuilt without error")
	}
}
