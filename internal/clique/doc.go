// Package clique simulates the CongestedClique model of distributed
// computing (paper §1.6): n machines, one per vertex of the input graph,
// computing in synchronous rounds. Each round every machine performs
// unbounded (here: polynomial) local computation and then exchanges
// messages of O(log n) bits.
//
// # Accounting
//
// Messages are measured in words; one word models O(log n) bits and holds a
// vertex id, an edge endpoint pair member, or a fixed-point probability (the
// paper's §2.5 precision analysis keeps every probability in O(1) words).
// Following Lenzen's routing theorem — any communication pattern in which
// every machine sends and receives at most n words is deliverable in O(1)
// rounds — a superstep that moves at most L words in or out of any single
// machine is charged ceil(L/n) rounds (minimum 1). Constant factors are
// deliberately normalized to 1 so that scaling experiments expose exponents
// rather than implementation constants; the experiments (internal/experiments)
// compare shapes, not absolute round counts.
//
// # Execution model
//
// Algorithms run as a sequence of bulk-synchronous supersteps. In each
// superstep every machine observes its inbox (messages delivered at the end
// of the previous superstep) and emits messages for the next one. Machine
// step functions execute concurrently on goroutines — the natural Go
// analogue of machines computing independently between communication rounds
// — but all cross-machine dataflow goes through the simulator, and inboxes
// are delivered in a deterministic order so runs are reproducible.
//
// # Fidelities and their byte-identical obligation
//
// The simulator has two execution modes (Fidelity): "charged", the only
// mode the serving path uses, runs hot supersteps as plain local
// computation and charges rounds/words analytically from a CostPlan
// declaring the communication pattern message-for-message
// (Sim.ChargedSuperstep, Sim.ChargeBroadcast); "full" materializes every
// Message and routes it through the superstep machinery, and survives as
// the test-only reference. The two modes are obligated to agree exactly:
// trees, Stats, and per-superstep traces (including max send/receive loads)
// must be byte-identical, which golden tests pin at the clique, core and
// doubling layers. A charged port that
// cannot reproduce the full path's loads word-for-word is a bug, not an
// approximation.
package clique
