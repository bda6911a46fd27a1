// Package prng provides the deterministic randomness substrate used by every
// algorithm in this repository.
//
// All samplers, simulators and experiments draw their randomness from a
// seeded, splittable Source so that every test, benchmark and experiment run
// is exactly reproducible. The package also implements the t-wise independent
// polynomial hash family that the paper's load-balanced doubling algorithm
// (Section 3, footnote 4) relies on, and the weighted-sampling primitives
// used for midpoint and edge sampling: a linear scan (WeightedIndex) and
// Walker's alias method (AliasBuilder). An alias draw of one index builds no
// table: it replays Walker's construction only until the drawn index's
// entry is final, and returns the index, and leaves the source, exactly as
// a full table build and one table draw would.
package prng
