package engine

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"

	"repro/internal/graph"
)

// manifestVersion pins the manifest's JSON schema; a manifest carrying a
// different version is treated like a corrupt one (renamed aside, the
// process starts with an empty registry and rebuilds the manifest as graphs
// are re-registered).
const manifestVersion = 1

const manifestName = "manifest.json"

// graphRecord is one registered graph in the manifest: enough to rebuild the
// exact weighted graph (edge list with float64 weights survives JSON because
// weights originate from float64s; the digest double-checks the round trip).
type graphRecord struct {
	Key string `json:"key"`
	N   int    `json:"n"`
	// Edges holds [u, v, weight] triples, sorted by (u, v).
	Edges [][]float64 `json:"edges"`
	// Digest is the hex graph digest at registration; build verifies the
	// rebuilt graph against it.
	Digest string `json:"digest"`
}

// recordGraph captures g under key as a manifest record.
func recordGraph(key string, g *graph.Graph) graphRecord {
	edges := g.Edges()
	rec := graphRecord{Key: key, N: g.N(), Edges: make([][]float64, len(edges))}
	for i, e := range edges {
		rec.Edges[i] = []float64{float64(e.U), float64(e.V), e.Weight}
	}
	d := g.Digest()
	rec.Digest = hex.EncodeToString(d[:])
	return rec
}

// build rebuilds the record's graph and verifies it against the stored
// digest, so a manifest edited or damaged past the JSON layer can never
// resurrect a different graph under an old key.
func (r graphRecord) build() (*graph.Graph, error) {
	g, err := graph.FromEdgeList(r.N, r.Edges)
	if err != nil {
		return nil, fmt.Errorf("engine: manifest graph %q: %w", r.Key, err)
	}
	d := g.Digest()
	if hex.EncodeToString(d[:]) != r.Digest {
		return nil, fmt.Errorf("engine: manifest graph %q: digest mismatch", r.Key)
	}
	return g, nil
}

// manifest is the registered-graph set a restarted process rehydrates its
// registry from.
type manifest struct {
	Version int           `json:"version"`
	Graphs  []graphRecord `json:"graphs"`
}

// saveManifest writes m into dir atomically (temp file + sync + rename),
// stamping the current manifestVersion.
func saveManifest(dir string, m *manifest) error {
	m.Version = manifestVersion
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("engine: encoding manifest: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "manifest-*.tmp")
	if err != nil {
		return fmt.Errorf("engine: saving manifest: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("engine: saving manifest: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("engine: saving manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("engine: saving manifest: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("engine: saving manifest: %w", err)
	}
	return nil
}

// loadManifest reads dir's manifest. A missing file yields an empty
// manifest (a fresh data dir); a corrupt or version-mismatched one is
// logged, renamed aside to manifest.json.corrupt, and also yields an empty
// manifest — the registry starts empty and re-registration rebuilds it.
func loadManifest(dir string) (*manifest, error) {
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return &manifest{Version: manifestVersion}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("engine: loading manifest: %w", err)
	}
	var m manifest
	uerr := json.Unmarshal(data, &m)
	if uerr == nil && m.Version == manifestVersion {
		return &m, nil
	}
	if uerr == nil {
		uerr = fmt.Errorf("stale manifest version %d (want %d)", m.Version, manifestVersion)
	}
	slog.Warn("engine: discarding corrupt manifest, starting with an empty registry", "path", path, "reason", uerr)
	_ = os.Rename(path, path+".corrupt")
	return &manifest{Version: manifestVersion}, nil
}

// hydrate rehydrates the registry from the data dir's manifest at
// construction. Only the graph set is restored; each graph's prepared state
// is rebuilt on first touch (or by Warmup), exactly as for a graph
// registered in this process. Damaged records are logged and skipped — their
// keys simply come back empty, like any unregistered graph.
func (e *Engine) hydrate() {
	man, err := loadManifest(e.dataDir)
	if err != nil {
		slog.Warn("engine: loading graph manifest, starting empty", "err", err)
		e.manifest = &manifest{Version: manifestVersion}
		return
	}
	e.manifest = man
	for _, rec := range man.Graphs {
		g, err := rec.build()
		if err != nil {
			slog.Warn("engine: skipping damaged manifest graph", "key", rec.Key, "err", err)
			continue
		}
		if err := e.reg.add(rec.Key, g); err != nil {
			slog.Warn("engine: rehydrating manifest graph", "key", rec.Key, "err", err)
		}
	}
}

// persistRegistration records a (re-)registered graph in the manifest.
// Manifest writes are atomic and rare (registration-rate, not sample-rate).
func (e *Engine) persistRegistration(key string, g *graph.Graph) {
	if e.dataDir == "" {
		return
	}
	e.manMu.Lock()
	defer e.manMu.Unlock()
	rec := recordGraph(key, g)
	replaced := false
	for i := range e.manifest.Graphs {
		if e.manifest.Graphs[i].Key == key {
			e.manifest.Graphs[i] = rec
			replaced = true
			break
		}
	}
	if !replaced {
		e.manifest.Graphs = append(e.manifest.Graphs, rec)
	}
	if err := saveManifest(e.dataDir, e.manifest); err != nil {
		slog.Warn("engine: persisting graph manifest", "key", key, "err", err)
	}
}

// forgetRegistration drops a deregistered graph from the manifest.
func (e *Engine) forgetRegistration(key string) {
	if e.dataDir == "" {
		return
	}
	e.manMu.Lock()
	defer e.manMu.Unlock()
	kept := e.manifest.Graphs[:0]
	for _, rec := range e.manifest.Graphs {
		if rec.Key != key {
			kept = append(kept, rec)
		}
	}
	if len(kept) == len(e.manifest.Graphs) {
		return
	}
	e.manifest.Graphs = kept
	if err := saveManifest(e.dataDir, e.manifest); err != nil {
		slog.Warn("engine: persisting graph manifest", "key", key, "err", err)
	}
}
