package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/mm"
	"repro/internal/schur"
)

// PreparedSnapshotVersion identifies the Prepared.Snapshot wire format.
// Bump it whenever the serialized layout or the meaning of any encoded field
// changes.
//
// Nothing in the serving path snapshots or restores a Prepared: a restarted
// engine re-runs Prepare. The codec stays only because the frozen benchmark
// harness (bench/trace.go) times it for core.restore_ms and
// core.snapshot_kb, and goes with the benchmark's next revision.
const PreparedSnapshotVersion uint32 = 1

// ErrNoSnapshot reports that a Prepared holds no serializable artifacts:
// single-vertex graphs and the message-dataflow backends (naive, semiring3d)
// never build the phase-0 state, so there is nothing worth persisting — a
// restart re-prepares them as cheaply as a snapshot load would.
var ErrNoSnapshot = errors.New("core: prepared state has no snapshot")

// Snapshot serializes the Prepared's expensive immutable artifacts — the
// phase-0 shortcut transition matrix and the phase-0 dyadic power table —
// bit-exactly (float64s as IEEE bit patterns). The phase-0 subset is not
// stored: it is always the full vertex set and is rebuilt in O(n) on
// restore. The encoding is deterministic: the same Prepared always snapshots
// to the same bytes.
//
// Prepareds with nothing to persist (n = 1, non-Fast backends) return
// ErrNoSnapshot.
func (p *Prepared) Snapshot() ([]byte, error) {
	if p.sub0 == nil || p.q0 == nil || p.pd0 == nil {
		return nil, ErrNoSnapshot
	}
	buf := make([]byte, 0, 24+p.q0.EncodedSize()+12+(p.pd0.MaxExp()+1)*p.q0.EncodedSize())
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.n))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.cfg.WalkLength))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.cfg.TruncDelta))
	buf = p.q0.AppendBinary(buf)
	return p.pd0.AppendBinary(buf)
}

// RestorePrepared rebuilds a Prepared from a Snapshot taken under an
// equivalent (graph, Config) pair, skipping the phase-0 matrix squarings
// entirely — the zero-warmup restart path. The restored Prepared is
// indistinguishable from a fresh Prepare: identical artifacts bit-for-bit,
// so every SampleWith draws byte-identical trees AND
// Stats (the replayed round charges read the same table the cold path would
// have built).
//
// Restore re-validates everything Prepare validates and additionally
// cross-checks the snapshot against the config (vertex count, walk length,
// truncation unit, matrix shapes). Any mismatch — a snapshot from a
// different graph or config, or a damaged payload that slipped past outer
// checksums — fails with an error; callers fall back to a cold Prepare.
func RestorePrepared(g *graph.Graph, cfg Config, data []byte) (*Prepared, error) {
	return restore(g, cfg, data)
}

// RestorePreparedExact is RestorePrepared under SampleExact's configuration
// overrides, matching PrepareExact.
func RestorePreparedExact(g *graph.Graph, cfg Config, data []byte) (*Prepared, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	return restore(g, exactConfig(g.N(), cfg), data)
}

// restore mirrors prepare step for step, decoding the phase-0 artifacts
// instead of computing them.
func restore(g *graph.Graph, cfg Config, data []byte) (*Prepared, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	n := g.N()
	if n == 1 {
		return nil, fmt.Errorf("core: restore: %w", ErrNoSnapshot)
	}
	cfg, err := cfg.withDefaults(n)
	if err != nil {
		return nil, err
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("core: graph must be connected")
	}
	if _, fast := cfg.Backend.(mm.Fast); !fast {
		return nil, fmt.Errorf("core: restore: snapshots exist only under the fast backend: %w", ErrNoSnapshot)
	}
	if len(data) < 20 {
		return nil, fmt.Errorf("core: restore: truncated snapshot (%d bytes)", len(data))
	}
	if got := int(binary.LittleEndian.Uint32(data)); got != n {
		return nil, fmt.Errorf("core: restore: snapshot of an %d-vertex graph, have %d vertices", got, n)
	}
	if got := int64(binary.LittleEndian.Uint64(data[4:])); got != cfg.WalkLength {
		return nil, fmt.Errorf("core: restore: snapshot walk length %d, config wants %d", got, cfg.WalkLength)
	}
	if got := math.Float64frombits(binary.LittleEndian.Uint64(data[12:])); got != cfg.TruncDelta {
		return nil, fmt.Errorf("core: restore: snapshot truncation delta %g, config wants %g", got, cfg.TruncDelta)
	}
	q, rest, err := matrix.DecodeBinary(data[20:])
	if err != nil {
		return nil, fmt.Errorf("core: restore: shortcut matrix: %w", err)
	}
	pd, rest, err := matrix.DecodePowerDyadic(rest)
	if err != nil {
		return nil, fmt.Errorf("core: restore: dyadic power table: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("core: restore: %d trailing bytes", len(rest))
	}
	if q.Rows() != n || q.Cols() != n {
		return nil, fmt.Errorf("core: restore: shortcut matrix is %dx%d, want %dx%d", q.Rows(), q.Cols(), n, n)
	}
	maxExp := int(math.Log2(float64(cfg.WalkLength)) + 0.5)
	if pd.MaxExp() != maxExp {
		return nil, fmt.Errorf("core: restore: power table holds up to 2^%d, config wants 2^%d", pd.MaxExp(), maxExp)
	}
	for e, pow := range pd.Pows {
		if pow.Rows() != n || pow.Cols() != n {
			return nil, fmt.Errorf("core: restore: power table level %d is %dx%d, want %dx%d", e, pow.Rows(), pow.Cols(), n, n)
		}
	}
	if pd.Delta != cfg.TruncDelta {
		return nil, fmt.Errorf("core: restore: power table delta %g, config wants %g", pd.Delta, cfg.TruncDelta)
	}

	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	sub, err := schur.NewSubset(n, members)
	if err != nil {
		return nil, err
	}
	return &Prepared{g: g, cfg: cfg, n: n, sub0: sub, q0: q, pd0: pd}, nil
}
