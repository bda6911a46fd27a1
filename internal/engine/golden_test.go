package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/graph"
	"repro/internal/prng"
)

// TestSamplerDigestGolden pins the bytes of the samplers core's
// TestPinnedDigestGolden does not cover: a SHA-256 over 64 Session.Sample
// draws' encoded trees and JSON Stats per sampler, on the same 32-vertex
// random 3-regular graph. Refactors that must not move output bytes keep
// these digests; a change that moves them on purpose regenerates them and
// says so.
func TestSamplerDigestGolden(t *testing.T) {
	g, err := graph.RandomRegular(32, 3, prng.New(32))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		sampler Sampler
		want    string
	}{
		{SamplerLowCover, "25f75a98a4a27b3fd5a6ea9aeec77a1e22d967e6b02a703acb4486a2d2c5f550"},
		{SamplerAldousBroder, "f82039b1db42bc3f4341a34aeb65c9600593c16ea85eda785346f82c6bd26270"},
		{SamplerWilson, "df3d1872b9814a09335272e806f496a27de843d220d88d4da7e4e320e8301455"},
		{SamplerMST, "a6af8c6ce4d4d987b5f00149661def04c6f771c3b8a1c4ef44f8476da7bacade"},
	}
	for _, tc := range cases {
		h := sha256.New()
		for i := 0; i < 64; i++ {
			tree, st, err := sess.Sample(context.Background(), SpecFor(tc.sampler), uint64(i))
			if err != nil {
				t.Fatalf("%s draw %d: %v", tc.sampler, i, err)
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
			t.Errorf("%s: digest %s, want %s", tc.sampler, got, tc.want)
		}
	}
}
