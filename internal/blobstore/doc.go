// Package blobstore is the durable prepared-state store behind zero-warmup
// restarts: a content-addressed, checksummed, file-backed store of the
// immutable artifacts a serving process is otherwise forced to recompute
// after every restart — core.Prepared snapshots (phase-0 Schur and shortcut
// matrices, dyadic power tables) — plus a small JSON manifest of the
// registered graph set.
//
// # Content addressing and the staleness-by-construction rule
//
// Every blob is keyed by the SHA-256 of (artifact kind, format version,
// graph digest, sampler-config fingerprint). The key IS the validity check:
// any change to the graph, to a sampling-relevant config knob, or to an
// artifact's serialization format produces a different key, so a process can
// never load a snapshot that was built under different assumptions — stale
// blobs are simply never addressed again (and are harmless residue on disk,
// reclaimable by deleting the directory). The store never mutates a blob in
// place: Put writes to a temp file in the blob's directory, syncs, and
// renames, so a crash mid-write leaves either the old blob or a temp file
// Get never reads — never a torn blob at the addressed path.
//
// # Corruption discipline
//
// Get re-verifies everything it reads: the container magic, the expected
// kind and format version, the payload length, and a SHA-256 checksum over
// header plus payload. A blob failing any check — truncated by a crash,
// bit-flipped by the disk, tampered with — is logged, counted
// (Stats.CorruptDiscards), deleted so it is never consulted again, and
// reported as a miss. Callers therefore treat every Get failure the same
// way: recompute cold and Put the fresh artifact back, which rewrites the
// discarded blob. A corrupt artifact is never served.
//
// # Determinism obligation (inherited, not created)
//
// The store moves bytes; it does not interpret them. The repo-wide contract
// that a restored process samples byte-identical trees AND Stats rests on
// the artifacts themselves being bit-exact serializations (matrix.
// AppendBinary round-trips float64 bit patterns) and on restore paths
// rebuilding exactly the state Prepare builds — pinned by golden tests at
// the core, engine, and HTTP layers.
//
// All Store methods are safe for concurrent use. Counters (hits, misses,
// bytes moved, corrupt discards) and a blob-load latency histogram are
// exported via Stats for Engine.Metrics, /v1/stats, and /metrics.
package blobstore
