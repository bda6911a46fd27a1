// Package experiments implements the reproduction's evaluation suite. The
// paper is a theory contribution with no measured tables, so every
// quantitative claim (theorem, lemma, corollary, worked figure) is turned
// into a measurable experiment (`go run ./cmd/experiments` runs them all).
// Each runner prints a human-readable table to its writer and
// returns the headline numbers so benchmarks and tests can assert on them.
package experiments
