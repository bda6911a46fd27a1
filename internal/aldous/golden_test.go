package aldous

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/prng"
)

// TestNaiveCongestedCliqueGolden pins the naive walk's bytes: a SHA-256
// over the sampled tree, the charged rounds, supersteps and words, on eight
// graphs of different cover times.
func TestNaiveCongestedCliqueGolden(t *testing.T) {
	const want = "03d267a3f49fe763b82a2b48caa2e9ee0d2f2f74d57a52f4e1be26aebd883e2a"
	h := sha256.New()
	for i, c := range []struct {
		fam string
		n   int
	}{
		{"cycle", 8}, {"path", 9}, {"complete", 10}, {"expander", 16},
		{"lollipop", 16}, {"er", 20}, {"barbell", 12}, {"expander", 32},
	} {
		g, err := graph.FromFamily(c.fam, c.n, prng.New(uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		tree, sim, err := NaiveCongestedClique(g, i%c.n, 10_000_000, prng.New(uint64(100+i)))
		if err != nil {
			t.Fatalf("%s n=%d: %v", c.fam, c.n, err)
		}
		fmt.Fprintf(h, "%s\n%d %d %d\n", tree.Encode(), sim.Rounds(), sim.Supersteps(), sim.TotalWords())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}
