package engine

import (
	"repro/internal/blobstore"
	"repro/internal/core"
	"repro/internal/graph"
)

// Artifact kinds in the durable store. The kind is part of the content
// address, so the two sampler variants' snapshots can never be confused for
// one another even under identical (graph, config) identities.
const (
	kindPreparedPhase = "prepared/phase"
	kindPreparedExact = "prepared/exact"
)

// hydrate rehydrates the registry from the store's manifest at construction.
// Only the graph set is eager; each graph's prepared state stays on disk
// until its first touch (buildPrepared), so a restart with many registered
// graphs pays for exactly the ones that get traffic. Damaged records are
// logged and skipped — their keys simply come back empty, like any
// unregistered graph.
func (e *Engine) hydrate() {
	man, err := e.store.LoadManifest()
	if err != nil {
		e.store.Logger().Warn("engine: loading graph manifest, starting empty", "err", err)
		e.manifest = &blobstore.Manifest{}
		return
	}
	e.manifest = man
	for _, rec := range man.Graphs {
		g, err := rec.Build()
		if err != nil {
			e.store.Logger().Warn("engine: skipping damaged manifest graph", "key", rec.Key, "err", err)
			continue
		}
		if err := e.reg.add(rec.Key, g); err != nil {
			e.store.Logger().Warn("engine: rehydrating manifest graph", "key", rec.Key, "err", err)
		}
	}
}

// persistRegistration records a (re-)registered graph in the manifest.
// Manifest writes are atomic and rare (registration-rate, not sample-rate).
func (e *Engine) persistRegistration(key string, g *graph.Graph) {
	if e.store == nil {
		return
	}
	e.manMu.Lock()
	defer e.manMu.Unlock()
	rec := blobstore.RecordGraph(key, g)
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
	if err := e.store.SaveManifest(e.manifest); err != nil {
		e.store.Logger().Warn("engine: persisting graph manifest", "key", key, "err", err)
	}
}

// forgetRegistration drops a deregistered graph from the manifest. Its blobs
// stay on disk — content-addressed residue that re-registration of the same
// graph under any key immediately benefits from.
func (e *Engine) forgetRegistration(key string) {
	if e.store == nil {
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
	if err := e.store.SaveManifest(e.manifest); err != nil {
		e.store.Logger().Warn("engine: persisting graph manifest", "key", key, "err", err)
	}
}

// snapshotKey derives the artifact kind and content address of one entry's
// prepared snapshot for the given sampler variant. ok is false when the
// config cannot be fingerprinted at this graph's size (the cold path will
// surface the same validation error to the caller).
func (e *Engine) snapshotKey(ent *entry, exact bool) (key blobstore.Key, kind string, ok bool) {
	var (
		fp  string
		err error
	)
	kind = kindPreparedPhase
	if exact {
		kind = kindPreparedExact
		fp, err = core.FingerprintExact(e.cfg, ent.g.N())
	} else {
		fp, err = e.cfg.Fingerprint(ent.g.N())
	}
	if err != nil {
		return blobstore.Key{}, "", false
	}
	return blobstore.NewKey(kind, core.PreparedSnapshotVersion, blobstore.GraphDigest(ent.g), fp), kind, true
}

// coldPrepare is the pre-persistence build path: a full core.Prepare.
func (e *Engine) coldPrepare(ent *entry, exact bool) (*core.Prepared, error) {
	if exact {
		return core.PrepareExact(ent.g, e.cfg)
	}
	return core.Prepare(ent.g, e.cfg)
}

// restorePrepared rebuilds a Prepared from a snapshot payload.
func (e *Engine) restorePrepared(ent *entry, exact bool, payload []byte) (*core.Prepared, error) {
	if exact {
		return core.RestorePreparedExact(ent.g, e.cfg, payload)
	}
	return core.RestorePrepared(ent.g, e.cfg, payload)
}

// buildPrepared produces the entry's Prepared for one sampler variant: from
// the durable store when a valid snapshot exists (zero-warmup — no matrix
// squarings), cold otherwise, with a write-behind snapshot save after a cold
// build. Runs under the entry's sync.Once, so each (entry, variant) resolves
// exactly once per process.
//
// The write-behind goroutine keeps persistence off the first request's
// latency path: Put happens after the caller is already sampling, and
// Engine.Close waits for in-flight saves. Samples themselves never touch the
// store — persistence is registration- and prepare-rate only.
func (e *Engine) buildPrepared(ent *entry, exact bool) (*core.Prepared, error) {
	if e.store == nil {
		return e.coldPrepare(ent, exact)
	}
	pKey, pKind, ok := e.snapshotKey(ent, exact)
	if !ok {
		return e.coldPrepare(ent, exact)
	}
	if payload, err := e.store.Get(pKey, pKind, core.PreparedSnapshotVersion); err == nil {
		p, rerr := e.restorePrepared(ent, exact, payload)
		if rerr == nil {
			return p, nil
		}
		// Decoded but contradicts the (graph, config) it is keyed under —
		// discard at the content level and fall through to a cold build,
		// whose write-behind rewrites the blob.
		e.store.Discard(pKey, rerr)
	}
	p, err := e.coldPrepare(ent, exact)
	if err != nil {
		return nil, err
	}
	e.persistWG.Add(1)
	go func() {
		defer e.persistWG.Done()
		snap, serr := p.Snapshot()
		if serr != nil {
			// ErrNoSnapshot (n = 1, dataflow backends): nothing to persist.
			return
		}
		if perr := e.store.Put(pKey, pKind, core.PreparedSnapshotVersion, snap); perr != nil {
			e.store.Logger().Warn("engine: persisting prepared snapshot", "graph", ent.key, "err", perr)
		}
	}()
	return p, nil
}

// Close drains the engine's persistence: it waits for in-flight write-behind
// snapshot saves. Close does not stop sampling — callers stop serving first,
// then Close. It returns nil: a failed save was already logged, and the next
// process's cold build rewrites the snapshot.
func (e *Engine) Close() error {
	e.persistWG.Wait()
	return nil
}
