package blobstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.MustNew(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		if err := g.AddEdge(e[0], e[1], 1.5); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := NewKey("prepared/phase", 1, GraphDigest(testGraph(t)), "cfg")
	payload := []byte("the artifact bytes")
	if err := s.Put(key, "prepared/phase", 1, payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key, "prepared/phase", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %q, want %q", got, payload)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.Puts != 1 || st.CorruptDiscards != 0 {
		t.Fatalf("counters: %+v", st)
	}
	if st.ResidentBlobs != 1 || st.ResidentBytes <= int64(len(payload)) {
		t.Fatalf("resident gauges: %+v", st)
	}
	if st.BytesWritten != int64(len(payload)) || st.BytesRead != int64(len(payload)) {
		t.Fatalf("byte counters: %+v", st)
	}
	if st.Load.Count != 1 {
		t.Fatalf("load histogram count %d, want 1", st.Load.Count)
	}
}

func TestGetMissingIsNotFound(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(Key{1}, "k", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
	if st := s.Stats(); st.Misses != 1 || st.CorruptDiscards != 0 {
		t.Fatalf("counters: %+v", st)
	}
}

// blobFile locates the single on-disk blob in the store.
func blobFile(t *testing.T, s *Store) string {
	t.Helper()
	var found string
	err := filepath.WalkDir(filepath.Join(s.Dir(), "blobs"), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".blob" {
			found = path
		}
		return err
	})
	if err != nil || found == "" {
		t.Fatalf("blob file not found (err %v)", err)
	}
	return found
}

func corruptionCase(t *testing.T, mutate func(string, []byte) []byte) {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := NewKey("prepared/phase", 1, [32]byte{}, "cfg")
	payload := []byte("some payload that is long enough to damage")
	if err := s.Put(key, "prepared/phase", 1, payload); err != nil {
		t.Fatal(err)
	}
	path := blobFile(t, s)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(path, raw), 0o644); err != nil {
		t.Fatal(err)
	}
	// The damaged blob must be discarded, deleted, and reported as a miss.
	if _, err := s.Get(key, "prepared/phase", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on damaged blob: %v, want ErrNotFound", err)
	}
	st := s.Stats()
	if st.CorruptDiscards != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("counters after damage: %+v", st)
	}
	if st.ResidentBlobs != 0 {
		t.Fatalf("damaged blob still resident: %+v", st)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("damaged blob file still on disk: %v", err)
	}
	// Recompute-and-rewrite restores service under the same key.
	if err := s.Put(key, "prepared/phase", 1, payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key, "prepared/phase", 1)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("rewritten blob: %q, %v", got, err)
	}
}

func TestTruncatedBlobDiscarded(t *testing.T) {
	corruptionCase(t, func(_ string, raw []byte) []byte { return raw[:len(raw)/2] })
}

func TestBitFlipDiscarded(t *testing.T) {
	corruptionCase(t, func(_ string, raw []byte) []byte {
		raw[len(raw)/2] ^= 0x40
		return raw
	})
}

func TestStaleFormatVersionDiscarded(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := NewKey("prepared/phase", 2, [32]byte{}, "cfg")
	if err := s.Put(key, "prepared/phase", 1, []byte("old format")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key, "prepared/phase", 2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
	if st := s.Stats(); st.CorruptDiscards != 1 {
		t.Fatalf("counters: %+v", st)
	}
}

func TestWrongKindDiscarded(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key{7}
	if err := s.Put(key, "prepared/exact", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key, "prepared/phase", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
	if st := s.Stats(); st.CorruptDiscards != 1 {
		t.Fatalf("counters: %+v", st)
	}
}

func TestReopenCountsResidents(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Key{1}, "k", 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Key{2}, "k", 1, []byte("bb")); err != nil {
		t.Fatal(err)
	}
	want := s.Stats()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := s2.Stats()
	if got.ResidentBlobs != want.ResidentBlobs || got.ResidentBytes != want.ResidentBytes {
		t.Fatalf("reopened gauges %+v, want %+v", got, want)
	}
	// The reopened store serves the old blobs.
	if b, err := s2.Get(Key{2}, "k", 1); err != nil || string(b) != "bb" {
		t.Fatalf("reopened Get: %q, %v", b, err)
	}
}

func TestPutOverwriteKeepsGaugesConsistent(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Key{9}, "k", 1, []byte("short")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Key{9}, "k", 1, bytes.Repeat([]byte("x"), 100)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ResidentBlobs != 1 {
		t.Fatalf("resident blobs %d, want 1", st.ResidentBlobs)
	}
	info, err := os.Stat(blobFile(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if st.ResidentBytes != info.Size() {
		t.Fatalf("resident bytes %d, file is %d", st.ResidentBytes, info.Size())
	}
}

func TestDiscardContentLevel(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key{3}
	if err := s.Put(key, "k", 1, []byte("decodes fine, contradicts config")); err != nil {
		t.Fatal(err)
	}
	s.Discard(key, errors.New("snapshot of the wrong graph"))
	if st := s.Stats(); st.CorruptDiscards != 1 || st.ResidentBlobs != 0 {
		t.Fatalf("counters after Discard: %+v", st)
	}
	if _, err := s.Get(key, "k", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("discarded blob still served: %v", err)
	}
}

func TestNilStoreIsDisabled(t *testing.T) {
	var s *Store
	if err := s.Put(Key{1}, "k", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(Key{1}, "k", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("nil Get: %v", err)
	}
	s.Discard(Key{1}, errors.New("x"))
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 || st.Puts != 0 || st.CorruptDiscards != 0 {
		t.Fatalf("nil Stats: %+v", st)
	}
	if m, err := s.LoadManifest(); err != nil || len(m.Graphs) != 0 {
		t.Fatalf("nil LoadManifest: %+v, %v", m, err)
	}
	if err := s.SaveManifest(&Manifest{}); err != nil {
		t.Fatal(err)
	}
}

func TestNewKeyDistinct(t *testing.T) {
	var d1, d2 [32]byte
	d2[0] = 1
	base := NewKey("a", 1, d1, "cfg")
	for name, k := range map[string]Key{
		"kind":        NewKey("b", 1, d1, "cfg"),
		"version":     NewKey("a", 2, d1, "cfg"),
		"graph":       NewKey("a", 1, d2, "cfg"),
		"fingerprint": NewKey("a", 1, d1, "cfg2"),
	} {
		if k == base {
			t.Errorf("key insensitive to %s", name)
		}
	}
	// Length-prefixing: moving a byte across a component boundary changes the key.
	if NewKey("ab", 1, d1, "c") == NewKey("a", 1, d1, "bc") {
		t.Error("component boundaries not separated")
	}
	if NewKey("a", 1, d1, "cfg") != base {
		t.Error("key not deterministic")
	}
}

func TestGraphDigestProperties(t *testing.T) {
	g1, g2 := testGraph(t), testGraph(t)
	if GraphDigest(g1) != GraphDigest(g2) {
		t.Fatal("identical graphs digest differently")
	}
	if err := g2.SetWeight(0, 1, 2.5); err != nil {
		t.Fatal(err)
	}
	if GraphDigest(g1) == GraphDigest(g2) {
		t.Fatal("weight change did not change the digest")
	}
	g3 := graph.MustNew(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		if err := g3.AddEdge(e[0], e[1], 1.5); err != nil {
			t.Fatal(err)
		}
	}
	if err := g3.AddEdge(3, 4, 1.5); err != nil {
		t.Fatal(err)
	}
	if GraphDigest(g1) == GraphDigest(g3) {
		t.Fatal("different vertex sets digest identically")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t)
	m := &Manifest{Graphs: []GraphRecord{RecordGraph("ring", g)}}
	if err := s.SaveManifest(m); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.LoadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Graphs) != 1 || got.Graphs[0].Key != "ring" {
		t.Fatalf("manifest: %+v", got)
	}
	rebuilt, err := got.Graphs[0].Build()
	if err != nil {
		t.Fatal(err)
	}
	if GraphDigest(rebuilt) != GraphDigest(g) {
		t.Fatal("rebuilt graph digests differently")
	}
}

func TestManifestMissingIsEmpty(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.LoadManifest()
	if err != nil || len(m.Graphs) != 0 {
		t.Fatalf("fresh manifest: %+v, %v", m, err)
	}
}

func TestManifestCorruptIsDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "manifest.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := s.LoadManifest()
	if err != nil || len(m.Graphs) != 0 {
		t.Fatalf("corrupt manifest load: %+v, %v", m, err)
	}
	if st := s.Stats(); st.CorruptDiscards != 1 {
		t.Fatalf("counters: %+v", st)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt manifest not renamed aside: %v", err)
	}
	// A graph re-registered after the discard saves a fresh manifest.
	if err := s.SaveManifest(&Manifest{Graphs: []GraphRecord{RecordGraph("g", testGraph(t))}}); err != nil {
		t.Fatal(err)
	}
	if m, err := s.LoadManifest(); err != nil || len(m.Graphs) != 1 {
		t.Fatalf("rewritten manifest: %+v, %v", m, err)
	}
}

func TestManifestStaleVersionDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(`{"version": 99, "graphs": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := s.LoadManifest()
	if err != nil || len(m.Graphs) != 0 {
		t.Fatalf("stale manifest load: %+v, %v", m, err)
	}
	if st := s.Stats(); st.CorruptDiscards != 1 {
		t.Fatalf("counters: %+v", st)
	}
}

func TestManifestBuildRejectsTamper(t *testing.T) {
	rec := RecordGraph("g", testGraph(t))
	rec.Edges[0][2] = 9.75
	if _, err := rec.Build(); err == nil {
		t.Fatal("tampered record rebuilt without error")
	}
}
