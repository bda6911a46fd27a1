package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/mm"
	"repro/internal/prng"
)

func TestSnapshotRestoreBitExact(t *testing.T) {
	g, err := graph.Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{WalkLength: 256}
	cold, err := Prepare(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := cold.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RestorePrepared(g, cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	// Restored artifacts are bit-identical, so a re-snapshot is byte-identical.
	snap2, err := warm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, snap2) {
		t.Fatal("restored state re-snapshots to different bytes")
	}
	// Trees AND Stats match draw for draw across several seeds.
	for seed := uint64(1); seed <= 5; seed++ {
		ct, cs, err := cold.Sample(prng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		wt, ws, err := warm.Sample(prng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if ct.Encode() != wt.Encode() {
			t.Fatalf("seed %d: trees differ: %s vs %s", seed, ct.Encode(), wt.Encode())
		}
		if !reflect.DeepEqual(cs, ws) {
			t.Fatalf("seed %d: stats differ:\ncold %+v\nwarm %+v", seed, cs, ws)
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	g := chordedCycle(t)
	cfg := Config{WalkLength: 64}
	p1, err := Prepare(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Prepare(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := p1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1, s2) {
		t.Fatal("two Prepares of the same pair snapshot differently")
	}
}

func TestSnapshotRestoreExact(t *testing.T) {
	g := chordedCycle(t)
	cfg := Config{WalkLength: 64}
	cold, err := PrepareExact(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := cold.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RestorePreparedExact(g, cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	ct, cs, err := cold.Sample(prng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	wt, ws, err := warm.Sample(prng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if ct.Encode() != wt.Encode() || !reflect.DeepEqual(cs, ws) {
		t.Fatal("exact-variant restore diverges from cold prepare")
	}
}

func TestSnapshotUnavailable(t *testing.T) {
	single := graph.MustNew(1)
	p, err := Prepare(single, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Snapshot(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("single-vertex snapshot: %v, want ErrNoSnapshot", err)
	}
	g := chordedCycle(t)
	naive, err := Prepare(g, Config{Backend: mm.Naive{}, WalkLength: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := naive.Snapshot(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("naive-backend snapshot: %v, want ErrNoSnapshot", err)
	}
	if _, err := RestorePrepared(g, Config{Backend: mm.Naive{}, WalkLength: 64}, nil); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("naive-backend restore: %v, want ErrNoSnapshot", err)
	}
}

func TestRestoreRejectsMismatch(t *testing.T) {
	g := chordedCycle(t)
	cfg := Config{WalkLength: 64}
	p, err := Prepare(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	other, err := graph.Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *graph.Graph
		cfg  Config
		data []byte
	}{
		{"different graph", other, cfg, snap},
		{"different walk length", g, Config{WalkLength: 128}, snap},
		{"different trunc delta", g, Config{WalkLength: 64, TruncDelta: 1.0 / 1024}, snap},
		{"truncated", g, cfg, snap[:len(snap)/2]},
		{"trailing bytes", g, cfg, append(append([]byte(nil), snap...), 0)},
		{"empty", g, cfg, nil},
	}
	for _, tc := range cases {
		if _, err := RestorePrepared(tc.g, tc.cfg, tc.data); err == nil {
			t.Errorf("%s: restore accepted a mismatched snapshot", tc.name)
		}
	}
}
