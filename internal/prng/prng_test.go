package prng

import (
	"math"
	"testing"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams from identical seeds diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams from different seeds coincide in %d/64 draws", same)
	}
}

func TestSplitDeterministicAndIndependent(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(1)
	c1again := New(7).Split(1)
	c2 := parent.Split(2)
	for i := 0; i < 50; i++ {
		if c1.Uint64() != c1again.Uint64() {
			t.Fatalf("split is not deterministic at step %d", i)
		}
	}
	// Child 2 should not track child 1.
	c1 = New(7).Split(1)
	same := 0
	for i := 0; i < 64; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling splits coincide in %d/64 draws", same)
	}
}

func TestSplitDoesNotPerturbParent(t *testing.T) {
	a := New(11)
	b := New(11)
	_ = a.Split(99)
	for i := 0; i < 20; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split consumed parent stream state")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 1000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(5)
	p := s.Perm(17)
	seen := make([]bool, 17)
	for _, v := range p {
		if v < 0 || v >= 17 || seen[v] {
			t.Fatalf("Perm produced invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestWeightedIndexErrors(t *testing.T) {
	s := New(1)
	if _, err := s.WeightedIndex(nil); err == nil {
		t.Error("expected error for empty weights")
	}
	if _, err := s.WeightedIndex([]float64{0, 0}); err == nil {
		t.Error("expected error for all-zero weights")
	}
	if _, err := s.WeightedIndex([]float64{1, -1}); err == nil {
		t.Error("expected error for negative weight")
	}
}

func TestWeightedIndexDistribution(t *testing.T) {
	s := New(9)
	w := []float64{1, 0, 3, 6}
	counts := make([]int, len(w))
	const trials = 200000
	for i := 0; i < trials; i++ {
		idx, err := s.WeightedIndex(w)
		if err != nil {
			t.Fatalf("WeightedIndex: %v", err)
		}
		counts[idx]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index sampled %d times", counts[1])
	}
	total := 10.0
	for i, c := range counts {
		want := w[i] / total
		got := float64(c) / trials
		if math.Abs(got-want) > 0.01 {
			t.Errorf("index %d: frequency %.4f, want %.4f", i, got, want)
		}
	}
}

func TestWeightedIndexSingleton(t *testing.T) {
	s := New(2)
	idx, err := s.WeightedIndex([]float64{5})
	if err != nil || idx != 0 {
		t.Fatalf("singleton sample = (%d, %v), want (0, nil)", idx, err)
	}
}

func TestMulMod61(t *testing.T) {
	cases := []struct{ a, b, want uint64 }{
		{0, 12345, 0},
		{1, mersenne61 - 1, mersenne61 - 1},
		{2, 1 << 60, 1},                            // 2^61 mod (2^61-1) = 1
		{mersenne61 - 1, mersenne61 - 1, 1},        // (-1)*(-1) = 1
		{1 << 30, 1 << 31, 1},                      // 2^61 ≡ 1
		{123456789, 987654321, 121932631112635269}, // < p, plain product
	}
	for _, c := range cases {
		if got := mulMod61(c.a, c.b); got != c.want {
			t.Errorf("mulMod61(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestMulMod61Property(t *testing.T) {
	// Property: mulMod61 agrees with big-number arithmetic via the
	// double-and-add fallback for random inputs.
	s := New(77)
	for i := 0; i < 2000; i++ {
		a := s.Uint64() % mersenne61
		b := s.Uint64() % mersenne61
		want := slowMulMod61(a, b)
		if got := mulMod61(a, b); got != want {
			t.Fatalf("mulMod61(%d, %d) = %d, want %d", a, b, got, want)
		}
	}
}

// slowMulMod61 computes a*b mod 2^61-1 by Russian-peasant doubling.
func slowMulMod61(a, b uint64) uint64 {
	var acc uint64
	for b > 0 {
		if b&1 == 1 {
			acc = addMod61(acc, a)
		}
		a = addMod61(a, a)
		b >>= 1
	}
	return acc
}

func TestKWiseHashErrors(t *testing.T) {
	seed := []uint64{1, 2, 3}
	if _, err := NewKWiseHash(0, 1, 1, seed); err == nil {
		t.Error("expected error for t=0")
	}
	if _, err := NewKWiseHash(3, 0, 1, seed); err == nil {
		t.Error("expected error for k=0")
	}
	if _, err := NewKWiseHash(3, 1, 0, seed); err == nil {
		t.Error("expected error for m=0")
	}
	if _, err := NewKWiseHash(4, 1, 1, seed); err == nil {
		t.Error("expected error for short seed")
	}
}

func TestKWiseHashDeterministicAcrossMachines(t *testing.T) {
	// The whole point of broadcasting the seed: every machine derives the
	// same function.
	seed := SampleKWiseSeed(8, New(4))
	h1, err := NewKWiseHash(8, 16, 100, seed)
	if err != nil {
		t.Fatalf("NewKWiseHash: %v", err)
	}
	h2, _ := NewKWiseHash(8, 16, 100, seed)
	for x := 0; x < 50; x++ {
		for y := 0; y < 16; y++ {
			if h1.Eval(x, y) != h2.Eval(x, y) {
				t.Fatalf("same seed produced different functions at (%d,%d)", x, y)
			}
		}
	}
}

func TestKWiseHashRange(t *testing.T) {
	seed := SampleKWiseSeed(4, New(8))
	h, err := NewKWiseHash(4, 32, 17, seed)
	if err != nil {
		t.Fatalf("NewKWiseHash: %v", err)
	}
	for x := 0; x < 200; x++ {
		for y := 0; y < 32; y++ {
			v := h.Eval(x, y)
			if v < 0 || v >= 17 {
				t.Fatalf("Eval(%d,%d) = %d out of range [0,17)", x, y, v)
			}
		}
	}
}

func TestKWiseHashPairwiseUniformity(t *testing.T) {
	// Statistical check of near-uniform marginals: with t >= 2 the family is
	// pairwise independent, so each bucket should receive ~ count/m items.
	const (
		m     = 16
		items = 64000
		t4    = 4
	)
	counts := make([]int, m)
	seed := SampleKWiseSeed(t4, New(123))
	h, err := NewKWiseHash(t4, 1, m, seed)
	if err != nil {
		t.Fatalf("NewKWiseHash: %v", err)
	}
	for x := 0; x < items; x++ {
		counts[h.Eval(x, 0)]++
	}
	want := float64(items) / m
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 0.1*want {
			t.Errorf("bucket %d has %d items, want about %.0f", b, c, want)
		}
	}
}

func TestKWiseHashCollisionRate(t *testing.T) {
	// Pairwise independence implies collision probability ~ 1/m over random
	// pairs; check we are in the right ballpark.
	const m = 1024
	seed := SampleKWiseSeed(8, New(55))
	h, err := NewKWiseHash(8, 4, m, seed)
	if err != nil {
		t.Fatalf("NewKWiseHash: %v", err)
	}
	coll := 0
	const pairs = 20000
	s := New(99)
	for i := 0; i < pairs; i++ {
		x1, y1 := s.Intn(1<<20), s.Intn(4)
		x2, y2 := s.Intn(1<<20), s.Intn(4)
		if x1 == x2 && y1 == y2 {
			continue
		}
		if h.Eval(x1, y1) == h.Eval(x2, y2) {
			coll++
		}
	}
	rate := float64(coll) / pairs
	if rate > 3.0/m {
		t.Errorf("collision rate %.5f way above 1/m = %.5f", rate, 1.0/m)
	}
}

func BenchmarkKWiseHashEval(b *testing.B) {
	seed := SampleKWiseSeed(64, New(1))
	h, err := NewKWiseHash(64, 256, 1024, seed)
	if err != nil {
		b.Fatalf("NewKWiseHash: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Eval(i, i&255)
	}
}

// TestSplitIntoMatchesSplit: the in-place split yields, for every label,
// the stream Split yields, through Uint64, Intn and Float64 alike, and it
// allocates nothing.
func TestSplitIntoMatchesSplit(t *testing.T) {
	parent := New(2024)
	var dst Source
	for label := uint64(0); label < 10000; label++ {
		want := parent.Split(label)
		parent.SplitInto(&dst, label)
		for i := 0; i < 4; i++ {
			if got, w := dst.Uint64(), want.Uint64(); got != w {
				t.Fatalf("label %d Uint64 %d: got %d, want %d", label, i, got, w)
			}
			n := 1 + int(label)%97 + i
			if got, w := dst.Intn(n), want.Intn(n); got != w {
				t.Fatalf("label %d Intn(%d): got %d, want %d", label, n, got, w)
			}
			if got, w := dst.Float64(), want.Float64(); got != w {
				t.Fatalf("label %d Float64: got %v, want %v", label, got, w)
			}
		}
	}
	label := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		parent.SplitInto(&dst, label)
		label++
		_ = dst.Uint64() + uint64(dst.Intn(7)) + uint64(dst.Float64())
	})
	if allocs != 0 {
		t.Errorf("SplitInto and draws made %v allocations, want 0", allocs)
	}
}
