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
// superstep the sending machines emit their messages and the receiving
// machines consume them; the next superstep sees every message of this
// one. The machines' local computation runs as plain sequential code on
// the calling goroutine, and the package starts no goroutine: a superstep
// is charged from its communication pattern alone, so running the
// machines concurrently would change nothing it reports.
//
// # One declaration, two executors
//
// A protocol declares each superstep once — a Step (a send function that
// names each sending machine and emits its messages, a receive function per
// message, and a codec), a Dense
// exchange, a broadcast or a Local computation — and the Sim it runs on
// picks the executor:
//
//   - charged, for every Sim from New and the only one serving uses: each
//     send is counted into a CostPlan as it is emitted and its payload is
//     handed to the receiver in memory. No Word is packed.
//   - materializing, for a Sim from NewMaterializing (a test helper
//     protocol tests reach through an unexported constructor hook, core's
//     and doubling's newSim): every payload is packed into Words, the
//     packed messages are counted into a CostPlan at their packed widths,
//     and each is decoded at its receiver, which the codec tells the
//     sending machine, as a clique link would. A broadcast's payload is
//     packed only to check its width.
//
// Both charge through ChargedSuperstep (a broadcast through
// ChargeBroadcast), and the materializing executor
// refuses a payload that packs to a different width than its send charged,
// so trees, Stats and per-superstep traces must come out identical on
// both; the executor goldens in clique, mm, core and doubling pin this. A
// declaration keeps two rules for that: no send reads state a receive of
// the same superstep writes (the charged executor delivers as it sends,
// the materializing one after all units have sent), and no receiver's
// state depends on the order of different senders' messages (the charged
// executor delivers in send order, the materializing one by receiving
// machine, then sending machine; one sender's messages arrive in send order
// on both). A receiver that must combine several senders' messages stores
// each in a slot of its own and combines the slots in a fixed order.
//
// # Bulk-charged steps
//
// A Bulk declaration adds a charged form to a Step: instead of emitting
// its messages, the charged executor calls Charge, which records the
// pattern's peak loads (CostPlan.SetPeaks) and leaves the receivers what
// the messages would. A protocol uses it when it can derive those peaks for
// far less than a call per message; core's truncation search does, for a
// superstep it repeats on nested prefixes. The materializing executor still
// sends every declared message, so the executor goldens keep checking the
// step's outcome and per-superstep trace, and the protocol's own
// differential test (core's TestBulkChargesMatchDeclaredSteps) compares the
// two forms on every prefix, not only on the ones a sample reaches.
package clique
