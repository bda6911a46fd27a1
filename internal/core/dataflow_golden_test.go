package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/mm"
	"repro/internal/prng"
	"repro/internal/spanning"
)

// TestDataflowBackendGolden pins the sampler's bytes under the two dataflow
// matmul backends, whose supersteps route real words: a SHA-256 over the
// tree, the JSON Stats and the last sample's per-superstep trace, on three
// families, on both executors. Each backend has one digest, and both
// executors must reach it.
func TestDataflowBackendGolden(t *testing.T) {
	want := map[string]string{
		"naive":      "f337ea8998a45e1e228da1017d4449651ee5a05e7870f0a3d8dc960707bfb605",
		"semiring3d": "f79300dbd97b5000f84e2f04a1aa9a7cae58c5cbdca0b0038c7263cfa465a2e0",
	}
	executors := []struct {
		name string
		new  func(int) *clique.Sim
	}{{"charged", clique.MustNew}, {"materializing", clique.NewMaterializing}}
	for _, be := range []mm.Backend{mm.Naive{}, mm.Semiring3D{}} {
		for _, ex := range executors {
			h := sha256.New()
			for _, fam := range []string{"expander", "lollipop", "er"} {
				g, err := graph.FromFamily(fam, 24, prng.New(3))
				if err != nil {
					t.Fatal(err)
				}
				for seed := uint64(1); seed <= 2; seed++ {
					var st *Stats
					sim := traced(ex.new, func() {
						var tree *spanning.Tree
						tree, st, err = Sample(g, Config{Backend: be}, prng.New(seed))
						if err == nil {
							fmt.Fprintf(h, "%s\n", tree.Encode())
						}
					})
					if err != nil {
						t.Fatalf("%s %s %s seed %d: %v", be.Name(), ex.name, fam, seed, err)
					}
					js, err := json.Marshal(st)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(h, "%s\n%+v\n", js, sim.Stats())
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want[be.Name()] {
				t.Errorf("%s on the %s executor: digest %s, want %s", be.Name(), ex.name, got, want[be.Name()])
			}
		}
	}
}
