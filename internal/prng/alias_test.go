package prng

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// refBuildAlias is the reference oracle for walker: Walker's construction
// with explicit small and large worklists, run as a two-stack build. It
// returns the same errors as weightTotal.
func refBuildAlias(w []float64) (prob []float64, alias []int, err error) {
	n := len(w)
	if n == 0 {
		return nil, nil, fmt.Errorf("prng: alias table over empty support")
	}
	var total float64
	for i, x := range w {
		if x < 0 {
			return nil, nil, fmt.Errorf("prng: negative weight %g at index %d", x, i)
		}
		total += x
	}
	if total <= 0 {
		return nil, nil, fmt.Errorf("prng: alias weights sum to zero")
	}
	prob = make([]float64, n)
	alias = make([]int, n)
	scaled := make([]float64, n)
	var small, large []int
	for i, x := range w {
		scaled[i] = x * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		prob[s] = scaled[s]
		alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		prob[i] = 1
		alias[i] = i
	}
	for _, i := range small {
		prob[i] = 1
		alias[i] = i
	}
	return prob, alias, nil
}

// refSample is one draw from a reference table.
func refSample(prob []float64, alias []int, src *Source) int {
	i := src.Intn(len(prob))
	if src.Float64() < prob[i] {
		return i
	}
	return alias[i]
}

// aliasFamilies is the number of weight families replayWeights draws from.
const aliasFamilies = 10

// replayWeights returns n weights of the given family, drawn with src.
func replayWeights(family, n int, src *Source) []float64 {
	w := make([]float64, n)
	switch family {
	case 0: // dense uniform
		for i := range w {
			w[i] = src.Float64()
		}
	case 1: // sparse: two thirds zeros
		for i := range w {
			if src.Intn(3) == 0 {
				w[i] = src.Float64()
			}
		}
	case 2: // heavy-tailed
		for i := range w {
			w[i] = math.Pow(src.Float64(), 8)
		}
	case 3: // small integers summing to n, so scaled values are exactly the integers
		for i := range w {
			w[i] = 1
		}
		for k := src.Intn(n + 1); k > 0; k-- {
			a, b := src.Intn(n), src.Intn(n)
			if a != b && w[a] > 0 {
				w[a]--
				w[b]++
			}
		}
	case 4: // all equal
		c := src.Float64() + 0.5
		for i := range w {
			w[i] = c
		}
	case 5: // one nonzero
		w[src.Intn(n)] = src.Float64() + 1e-3
	case 6: // magnitudes near 1e300 and above: the total overflows to +Inf
		for i := range w {
			w[i] = math.Ldexp(1+src.Float64(), 997+src.Intn(27))
		}
	case 7: // subnormals
		for i := range w {
			w[i] = math.SmallestNonzeroFloat64 * float64(src.Intn(1<<20))
		}
	case 8: // dense with NaN weights, which validation accepts
		for i := range w {
			w[i] = src.Float64()
			if src.Intn(8) == 0 {
				w[i] = math.NaN()
			}
		}
	case 9: // dense with +Inf weights, which validation accepts
		for i := range w {
			w[i] = src.Float64()
			if src.Intn(8) == 0 {
				w[i] = math.Inf(1)
			}
		}
	}
	return w
}

// checkReplay compares the builder on w with the reference oracle, for
// draws from a source seeded with seed: one draw (index, the source's next
// Uint64, and the error), the built table bit for bit, several draws from
// it, and, when allTargets is set, the replay's stop for every index.
func checkReplay(t testing.TB, w []float64, seed uint64, allTargets bool) {
	t.Helper()
	prob, alias, refErr := refBuildAlias(w)
	var b AliasBuilder

	ref, got := New(seed), New(seed)
	out := []int{-1}
	err := b.SampleInto(w, got, out)
	if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
		t.Fatalf("w=%v: error %v, reference %v", w, err, refErr)
	}
	if err == nil {
		if want := refSample(prob, alias, ref); out[0] != want {
			t.Fatalf("w=%v seed %d: drew %d, reference %d", w, seed, out[0], want)
		}
	}
	if g, r := got.Uint64(), ref.Uint64(); g != r {
		t.Fatalf("w=%v seed %d: source after the draw at %#x, reference %#x", w, seed, g, r)
	}
	if err != nil {
		return
	}

	total, _ := weightTotal(w)
	b.build(w, total)
	for i := range w {
		if math.Float64bits(b.prob[i]) != math.Float64bits(prob[i]) || b.alias[i] != alias[i] {
			t.Fatalf("w=%v: entry %d is (%v, %d), reference (%v, %d)", w, i, b.prob[i], b.alias[i], prob[i], alias[i])
		}
	}

	outs := make([]int, 2+int(seed%3))
	ref, got = New(seed), New(seed)
	if err := b.SampleInto(w, got, outs); err != nil {
		t.Fatalf("w=%v: several draws: %v", w, err)
	}
	for k, o := range outs {
		if want := refSample(prob, alias, ref); o != want {
			t.Fatalf("w=%v seed %d: draw %d is %d, reference %d", w, seed, k, o, want)
		}
	}
	if got.Uint64() != ref.Uint64() {
		t.Fatalf("w=%v seed %d: source after several draws differs from the reference", w, seed)
	}

	if allTargets {
		for i := range w {
			p, a := walker(w, total, i, nil, nil)
			if math.Float64bits(p) != math.Float64bits(prob[i]) || a != alias[i] {
				t.Fatalf("w=%v: replay to %d stops at (%v, %d), reference (%v, %d)", w, i, p, a, prob[i], alias[i])
			}
		}
	}
}

// TestAliasReplayMatchesReference runs the replay against the two-stack
// oracle over 200k weight vectors: every family at every size 1..128, with
// the invalid vectors among them.
func TestAliasReplayMatchesReference(t *testing.T) {
	const cases = 200_000
	src := New(2024)
	for c := 0; c < cases; c++ {
		n := 1 + c%128
		family := (c / 128) % aliasFamilies
		w := replayWeights(family, n, src)
		switch c % 997 {
		case 1:
			w = w[:0]
		case 2:
			w[src.Intn(n)] = -src.Float64() - 1e-9
		case 3:
			clear(w)
		}
		checkReplay(t, w, src.Uint64(), c%61 == 0)
	}
}

// FuzzAliasReplay runs the replay against the oracle on fuzzed weights. The
// first byte picks the decoding: bit 0 keeps the sign of 8-byte float
// weights, bit 1 reads one small integer weight per byte instead.
func FuzzAliasReplay(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0x40}, uint64(1))
	f.Add([]byte{2, 1, 1, 0, 2, 1, 3, 0, 0}, uint64(7))
	f.Add([]byte{2, 1, 1, 1, 1}, uint64(3))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0xf0, 0xbf}, uint64(5))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xe0, 0x7f}, uint64(9))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		if len(data) == 0 {
			return
		}
		mode, data := data[0], data[1:]
		var w []float64
		if mode&2 != 0 {
			for _, c := range data {
				w = append(w, float64(c%8))
			}
		} else {
			for ; len(data) >= 8; data = data[8:] {
				x := math.Float64frombits(binary.LittleEndian.Uint64(data))
				if mode&1 == 0 {
					x = math.Abs(x)
				}
				w = append(w, x)
			}
		}
		if len(w) > 256 {
			w = w[:256]
		}
		checkReplay(t, w, seed, true)
	})
}

func TestAliasMatchesLinearSampling(t *testing.T) {
	w := []float64{0.5, 2, 0, 4, 1.5}
	const trials = 200000
	var b AliasBuilder
	table := make([]int, trials)
	if err := b.SampleInto(w, New(13), table); err != nil {
		t.Fatalf("SampleInto: %v", err)
	}
	single := make([]int, trials)
	s := New(14)
	for i := range single {
		if err := b.SampleInto(w, s, single[i:i+1]); err != nil {
			t.Fatalf("SampleInto: %v", err)
		}
	}
	for name, draws := range map[string][]int{"table": table, "single": single} {
		counts := make([]int, len(w))
		for _, d := range draws {
			counts[d]++
		}
		if counts[2] != 0 {
			t.Errorf("%s: zero-weight index sampled %d times", name, counts[2])
		}
		total := 8.0
		for i, c := range counts {
			want := w[i] / total
			got := float64(c) / trials
			if math.Abs(got-want) > 0.01 {
				t.Errorf("%s: index %d: frequency %.4f, want %.4f", name, i, got, want)
			}
		}
	}
}

func TestAliasErrors(t *testing.T) {
	var b AliasBuilder
	for _, k := range []int{1, 3} {
		out := make([]int, k)
		if err := b.SampleInto(nil, New(1), out); err == nil {
			t.Error("expected error for empty weights")
		}
		if err := b.SampleInto([]float64{-1, 2}, New(1), out); err == nil {
			t.Error("expected error for negative weight")
		}
		if err := b.SampleInto([]float64{0}, New(1), out); err == nil {
			t.Error("expected error for zero total")
		}
	}
}

func TestAliasUniformProperty(t *testing.T) {
	// Property: for uniform weights, the alias table reduces to direct
	// uniform sampling (every prob ~ 1).
	f := func(nRaw uint8) bool {
		n := int(nRaw%20) + 1
		w := make([]float64, n)
		for i := range w {
			w[i] = 3.5
		}
		total, err := weightTotal(w)
		if err != nil {
			return false
		}
		var b AliasBuilder
		b.build(w, total)
		for _, p := range b.prob {
			if math.Abs(p-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkAliasSample(b *testing.B) {
	w := make([]float64, 1024)
	s := New(2)
	for i := range w {
		w[i] = s.Float64() + 0.01
	}
	total, err := weightTotal(w)
	if err != nil {
		b.Fatalf("weightTotal: %v", err)
	}
	var ab AliasBuilder
	ab.build(w, total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ab.sample(s)
	}
}

// BenchmarkAliasDraw times one draw from a midpoint-like distribution
// (dense, positive, uneven weights) at the sampler's pair sizes: the single
// draw's partial replay against a full table build followed by one table
// draw. It cycles through 256 weight vectors, as the sampler's pairs do, so
// the branch predictor cannot learn one vector's classes.
func BenchmarkAliasDraw(b *testing.B) {
	for _, n := range []int{48, 96} {
		s := New(3)
		ws := make([][]float64, 256)
		for k := range ws {
			ws[k] = make([]float64, n)
			for i := range ws[k] {
				ws[k][i] = math.Pow(s.Float64(), 3)
			}
		}
		var ab AliasBuilder
		b.Run(fmt.Sprintf("n=%d/single", n), func(b *testing.B) {
			out := make([]int, 1)
			for i := 0; i < b.N; i++ {
				if err := ab.SampleInto(ws[i%len(ws)], s, out); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/table", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := ws[i%len(ws)]
				total, err := weightTotal(w)
				if err != nil {
					b.Fatal(err)
				}
				ab.build(w, total)
				_ = ab.sample(s)
			}
		})
	}
}
