package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/graph"
	"repro/internal/prng"
)

// TestPinnedDigestGolden pins the bytes the samplers produce across commits:
// a SHA-256 over 64 draws' encoded trees and JSON Stats, per sampler and
// graph size, through Prepared.SampleWith at the default Config. Refactors
// that must not move output bytes keep these digests; a change that moves
// them on purpose (say, a different Schur elimination order) regenerates
// them and says so.
//
// The default walk length always meets a phase's distinct budget, so those
// cases never extend a walk. The two exact cases at WalkLength 16 do (131
// and 375 Las Vegas extensions over their 64 draws), and pin the segment
// path: a phase state built per segment, the first visits read off the
// whole extended walk.
func TestPinnedDigestGolden(t *testing.T) {
	cases := []struct {
		sampler string
		n       int
		cfg     Config
		want    string
	}{
		{"phase", 32, Config{}, "c3407cfb29ef5ab6e9a923b7550e6047edc3f6c0142e3cf8400c8c603906ecad"},
		{"exact", 32, Config{}, "29a26889bc04d7afac47081c9446be8942497ea5ff07e571605bd9ee7c0684a5"},
		{"phase", 96, Config{}, "f28f491b39855340e5ee1a1970b103d91e40d935eda3bc30ce6bca6bdf517fd7"},
		{"exact", 96, Config{}, "a474fed8d0ad870978a6261bfbfbcafc5897f87d5e5693aced78b60b9255613b"},
		{"exact", 32, Config{WalkLength: 16}, "f56541c96f2942258a6006e70cb2efea30f4511c8eb78284f3f94f4c4f4c9aca"},
		{"exact", 48, Config{WalkLength: 16}, "a34857014b3af2d21d508498b5f90ddc137e8367f010c716ff3b74e754ddb2d6"},
	}
	for _, tc := range cases {
		g, err := graph.RandomRegular(tc.n, 3, prng.New(uint64(tc.n)))
		if err != nil {
			t.Fatal(err)
		}
		// The exact digests must come out both from a standalone exact
		// Prepared and from the exact variant that shares a phase Prepared's
		// table.
		prepares := []func(*graph.Graph, Config) (*Prepared, error){Prepare}
		if tc.sampler == "exact" {
			prepares = []func(*graph.Graph, Config) (*Prepared, error){PrepareExact, prepareViaPhase}
		}
		for pi, prepare := range prepares {
			prep, err := prepare(g, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			src := prng.New(7)
			extensions := 0
			for i := 0; i < 64; i++ {
				tree, st, err := prep.SampleWith(src.Split(uint64(i)), SampleOpts{})
				if err != nil {
					t.Fatalf("%s n=%d draw %d: %v", tc.sampler, tc.n, i, err)
				}
				extensions += st.Extensions
				js, err := json.Marshal(st)
				if err != nil {
					t.Fatal(err)
				}
				h.Write([]byte(tree.Encode()))
				h.Write([]byte{'\n'})
				h.Write(js)
				h.Write([]byte{'\n'})
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("%s n=%d %+v (preparer %d): digest %s, want %s", tc.sampler, tc.n, tc.cfg, pi, got, tc.want)
			}
			if tc.cfg.WalkLength > 0 && extensions == 0 {
				t.Errorf("%s n=%d %+v: no Las Vegas extension in 64 draws", tc.sampler, tc.n, tc.cfg)
			}
		}
	}
}

// prepareViaPhase builds the exact sampler the way the engine does: a phase
// Prepared first, then its Exact variant.
func prepareViaPhase(g *graph.Graph, cfg Config) (*Prepared, error) {
	p, err := Prepare(g, cfg)
	if err != nil {
		return nil, err
	}
	return p.Exact()
}
