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
func TestPinnedDigestGolden(t *testing.T) {
	cases := []struct {
		sampler string
		n       int
		want    string
	}{
		{"phase", 32, "c3407cfb29ef5ab6e9a923b7550e6047edc3f6c0142e3cf8400c8c603906ecad"},
		{"exact", 32, "29a26889bc04d7afac47081c9446be8942497ea5ff07e571605bd9ee7c0684a5"},
		{"phase", 96, "f28f491b39855340e5ee1a1970b103d91e40d935eda3bc30ce6bca6bdf517fd7"},
		{"exact", 96, "a474fed8d0ad870978a6261bfbfbcafc5897f87d5e5693aced78b60b9255613b"},
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
			prep, err := prepare(g, Config{})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			src := prng.New(7)
			for i := 0; i < 64; i++ {
				tree, st, err := prep.SampleWith(src.Split(uint64(i)), SampleOpts{})
				if err != nil {
					t.Fatalf("%s n=%d draw %d: %v", tc.sampler, tc.n, i, err)
				}
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
				t.Errorf("%s n=%d (preparer %d): digest %s, want %s", tc.sampler, tc.n, pi, got, tc.want)
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
