// Package doubling implements Section 3 of the paper: the load-balanced
// doubling algorithm for building random walks in the congested clique
// (Theorem 2), and the resulting spanning tree sampler for graphs with
// small cover times (Corollary 1).
//
// The classic Doubling algorithm of Bahmani, Chakrabarti and Xin starts
// with every vertex holding tau length-1 walks and repeatedly merges
// prefix/suffix pairs, doubling walk lengths while halving their count.
// Implemented naively, all walks ending at a popular vertex v are sent to
// machine v, which can receive Θ(n²·log n) bits in one merging step. The
// paper's fix routes the meeting point of each prefix/suffix pair through a
// t-wise independent hash (t = 8c·log n), which Lemma 10 shows bounds every
// machine's received tuples by 16ck·log n with high probability.
//
// Both the balanced and the unbalanced routing are implemented; the zero
// Config runs the paper's balanced routing, and Config.Unbalanced selects
// the other. The experiment suite (E3, E5) measures the round counts of
// Theorem 2 and the per-machine load bound of Lemma 10, and contrasts them
// with the unbalanced variant on skewed graphs.
package doubling
