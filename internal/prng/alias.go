package prng

import "fmt"

// AliasBuilder draws indices from discrete distributions given by
// non-negative, not-necessarily-normalized weights, with Walker's alias
// method, and recycles one table's storage across calls.
//
// The congested clique sampler draws each pair's midpoints from that pair's
// distribution (Algorithm 2 step 5), and most pairs draw exactly once. A
// single draw builds no table: it replays Walker's construction only until
// the drawn index's entry is final (see walker). Several draws build the
// whole table with the same replay and then sample it in O(1) each. Either
// way the indices, and the source's state afterwards, are those of a full
// table build followed by one table draw per index.
type AliasBuilder struct {
	// The last table built: index i is kept with probability prob[i] and
	// otherwise replaced by alias[i].
	prob  []float64
	alias []int
}

// SampleInto draws len(out) indices from the distribution w[i] / sum(w)
// using src and writes them to out. It returns an error, and consumes no
// randomness, for an empty, negative or all-zero weight vector.
func (b *AliasBuilder) SampleInto(w []float64, src *Source, out []int) error {
	total, err := weightTotal(w)
	if err != nil {
		return err
	}
	if len(out) == 1 {
		out[0] = drawOnce(w, total, src)
		return nil
	}
	b.build(w, total)
	for i := range out {
		out[i] = b.sample(src)
	}
	return nil
}

// weightTotal validates alias weights and returns their sum, accumulated
// left to right.
func weightTotal(w []float64) (float64, error) {
	if len(w) == 0 {
		return 0, fmt.Errorf("prng: alias table over empty support")
	}
	var total float64
	for i, x := range w {
		if x < 0 {
			return 0, fmt.Errorf("prng: negative weight %g at index %d", x, i)
		}
		total += x
	}
	if total <= 0 {
		return 0, fmt.Errorf("prng: alias weights sum to zero")
	}
	return total, nil
}

// build constructs the alias table for validated weights w with sum total
// in the builder's storage.
func (b *AliasBuilder) build(w []float64, total float64) {
	n := len(w)
	b.prob = growFloats(b.prob, n)
	b.alias = growInts(b.alias, n)
	for i := range b.prob {
		b.prob[i], b.alias[i] = 1, i
	}
	walker(w, total, -1, b.prob, b.alias)
}

// sample draws one index from the last table built using src: a uniform
// index, then a uniform float deciding between it and its alias.
func (b *AliasBuilder) sample(src *Source) int {
	i := src.Intn(len(b.prob))
	if src.Float64() < b.prob[i] {
		return i
	}
	return b.alias[i]
}

// drawOnce is one table draw from validated weights w with sum total,
// without the table. It consumes src exactly as sample does. When the
// drawn index i starts out small and the float falls below its scaled
// weight, i is kept whatever its final prob, which is either that scaled
// weight or 1; otherwise it replays the construction until i is final.
func drawOnce(w []float64, total float64, src *Source) int {
	n := len(w)
	i := src.Intn(n)
	u := src.Float64()
	if x := w[i] * float64(n); x < total && u < x/total {
		return i
	}
	if p, a := walker(w, total, i, nil, nil); !(u < p) {
		return a
	}
	return i
}

// walker is Walker's alias construction over the scaled weights
// v[i] = w[i]·n/total, run as the classic two-stack build runs it but with
// neither the stacks nor the scaled values stored. In that build, the
// indices with v[i] < 1 (small) and the others (large) start on two stacks
// in ascending order. While both are non-empty it pops a small s and a
// large l, makes prob[s] = v[s] and alias[s] = l, lowers v[l] by 1 − v[s],
// and pushes l back onto the stack its new value belongs to. Every index
// left on a stack ends with prob 1 and itself as alias.
//
// Pops from the small stack therefore take the original small indices from
// the top down, and the large on top stays there until its value falls
// below 1; then it is the next small popped. So two descending scans, one
// per class, plus the current large and the one that has just fallen stand
// in for both stacks. Every value update runs the same float operations in
// the same order as the stack build, so every entry matches it bit for bit.
//
// A weight is classified small by w[i]·n < total, without the division:
// for a ≥ 0 and b > 0, a < b exactly when the rounded a/b < 1, because
// a < b gives a/b ≤ 1 − 2⁻⁵³, which is representable; Inf and NaN give the
// same answer both ways.
//
// With prob and alias non-nil (prefilled with 1 and the identity) it runs
// to completion and writes every entry of a popped small. Otherwise it
// stops as soon as index target is final and returns its prob and alias.
func walker(w []float64, total float64, target int, prob []float64, alias []int) (float64, int) {
	n := len(w)
	fn := float64(n)
	// The next small and large indices are searched below si and li.
	si, li := n, n
	// l is the large on top of its stack (-1: the stack is empty) and lv
	// its current value.
	l, lv := -1, 0.0
	for li--; li >= 0; li-- {
		if !(w[li]*fn < total) {
			l, lv = li, w[li]*fn/total
			break
		}
	}
	// fallen is a large whose value has just fallen below 1 (-1: none) and
	// fv that value: the top of the small stack.
	fallen, fv := -1, 0.0
	for l >= 0 {
		s, sv := fallen, fv
		if s >= 0 {
			fallen = -1
		} else {
			for si--; si >= 0 && !(w[si]*fn < total); si-- {
			}
			if si < 0 {
				break
			}
			s, sv = si, w[si]*fn/total
		}
		if s == target {
			return sv, l
		}
		if prob != nil {
			prob[s], alias[s] = sv, l
		}
		lv -= 1 - sv
		if lv < 1 {
			fallen, fv = l, lv
			for l, li = -1, li-1; li >= 0; li-- {
				if !(w[li]*fn < total) {
					l, lv = li, w[li]*fn/total
					break
				}
			}
		}
	}
	return 1, target
}

// growFloats returns s resized to n, reallocating only when capacity is
// short. Contents are unspecified; callers overwrite every element.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growInts is growFloats for int slices.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
