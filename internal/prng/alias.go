package prng

import "fmt"

// Alias is a Walker alias table for O(1) repeated sampling from a fixed
// discrete distribution. Construction is O(n).
//
// The congested clique sampler draws many midpoints from the same
// (start, end)-pair distribution within one level (Algorithm 2 step 5);
// machines build one alias table per pair and then sample each midpoint in
// constant time.
type Alias struct {
	prob  []float64
	alias []int
}

// NewAlias builds an alias table from non-negative, not-necessarily
// normalized weights. It returns an error for an empty, negative or all-zero
// weight vector.
func NewAlias(w []float64) (*Alias, error) {
	a := &Alias{}
	if err := buildAlias(a, nil, w); err != nil {
		return nil, err
	}
	return a, nil
}

// AliasBuilder amortizes alias-table construction across many builds by
// recycling the table and its construction worklists. The sampler builds one
// table per (pair, level) and discards it after drawing that pair's
// midpoints, so a per-runner builder removes four allocations per pair.
type AliasBuilder struct {
	a       Alias
	scratch aliasScratch
}

// aliasScratch holds the construction worklists of one alias build.
type aliasScratch struct {
	scaled       []float64
	small, large []int
}

// Build constructs the table for w in the builder's storage and returns it.
// The returned table is valid until the next Build call; the construction is
// the exact NewAlias algorithm, so a builder-built table samples identically.
func (b *AliasBuilder) Build(w []float64) (*Alias, error) {
	if err := buildAlias(&b.a, &b.scratch, w); err != nil {
		return nil, err
	}
	return &b.a, nil
}

// buildAlias runs Walker's O(n) construction into a, reusing sc's worklists
// when non-nil.
func buildAlias(a *Alias, sc *aliasScratch, w []float64) error {
	n := len(w)
	if n == 0 {
		return fmt.Errorf("prng: alias table over empty support")
	}
	var total float64
	for i, x := range w {
		if x < 0 {
			return fmt.Errorf("prng: negative weight %g at index %d", x, i)
		}
		total += x
	}
	if total <= 0 {
		return fmt.Errorf("prng: alias weights sum to zero")
	}

	var local aliasScratch
	if sc == nil {
		sc = &local
	}
	a.prob = growFloats(a.prob, n)
	a.alias = growInts(a.alias, n)
	scaled := growFloats(sc.scaled, n)
	small := growInts(sc.small, n)[:0]
	large := growInts(sc.large, n)[:0]
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
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	sc.scaled, sc.small, sc.large = scaled, small, large
	return nil
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

// Sample draws one index from the table's distribution using src.
func (a *Alias) Sample(src *Source) int {
	i := src.Intn(len(a.prob))
	if src.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}
