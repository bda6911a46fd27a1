package clique

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/obs"
)

// parallelThreshold is the machine count below which supersteps run
// sequentially even on multi-core hosts (goroutine dispatch would dominate
// the tiny per-machine work).
const parallelThreshold = 32

// forceParallel makes Superstep always take the goroutine path; tests use
// it to exercise the concurrent execution mode on single-core hosts.
var forceParallel = false

// roundsFor is the Lenzen-routing charge shared by every superstep variant:
// a pattern whose maximum per-machine send/receive load is maxLoad words
// costs ceil(maxLoad/n) rounds, minimum 1. Delivered and charged
// supersteps both charge through it, so the two executors cannot drift.
func roundsFor(maxLoad, n int) int {
	if maxLoad > n {
		return (maxLoad + n - 1) / n
	}
	return 1
}

// broadcastRounds is the two-phase broadcast charge shared by Broadcast and
// ChargeBroadcast: 2*ceil(w/n) rounds for w words.
func broadcastRounds(w, n int) int {
	if w > n {
		return 2 * ((w + n - 1) / n)
	}
	return 2
}

// Word is one O(log n)-bit message word: a vertex id, a count, or a
// fixed-point probability.
type Word uint64

// IntWord packs a non-negative integer (vertex id, count, index) into a word.
func IntWord(v int) Word { return Word(v) }

// Int unpacks an integer word.
func (w Word) Int() int { return int(w) }

// AppendInts packs integers into words appended to dst.
func AppendInts(dst []Word, vs ...int) []Word {
	for _, v := range vs {
		dst = append(dst, IntWord(v))
	}
	return dst
}

// Ints unpacks integer words.
func Ints(words []Word) []int {
	vs := make([]int, len(words))
	for i, w := range words {
		vs[i] = w.Int()
	}
	return vs
}

// FloatWord packs a float64 into a word. The paper's algorithms only ever
// communicate probabilities with O(log n)-bit fixed-point representations
// (§2.5); we transport the full float and rely on the explicit TruncateDown
// rounding in the numerical pipeline to model the precision limit.
func FloatWord(f float64) Word { return Word(math.Float64bits(f)) }

// Float unpacks a float word.
func (w Word) Float() float64 { return math.Float64frombits(uint64(w)) }

// Message is a tagged bundle of words from one machine to another. A bundle
// of k words counts as k words of load (a real implementation would split it
// into k messages; bundling is only a simulation convenience).
type Message struct {
	From, To int
	Tag      int
	Words    []Word
}

// StepFunc is one machine's computation during a superstep: it consumes the
// machine's inbox and returns outgoing messages. Implementations must not
// share mutable state across machines except through messages; step
// functions for different machines run concurrently.
type StepFunc func(id int, inbox []Message) ([]Message, error)

// StepStat records the communication profile of one superstep.
type StepStat struct {
	Name       string
	Rounds     int
	MaxSend    int // max words sent by any machine
	MaxRecv    int // max words received by any machine
	TotalWords int
	MaxRecvMsg int // max number of messages (tuples) received by any machine
}

// Sim is a congested clique of n machines. The zero value is unusable;
// construct with New.
type Sim struct {
	n          int
	rounds     int
	supersteps int
	totalWords int64
	inboxes    [][]Message
	// inboxDirty tracks whether any inbox may hold messages; charged-mode
	// supersteps never deliver any, so clearInboxes becomes a no-op between
	// them instead of an O(n) sweep a few thousand times per sample.
	inboxDirty bool
	stats      []StepStat

	// materialize selects the executor of declared supersteps (exec.go):
	// false, the charged executor, for every Sim from New; true only for a
	// Sim from NewMaterializing. plan is the charged executor's reusable
	// cost plan.
	materialize bool
	plan        *CostPlan
	traceStats  bool

	// trace, when non-nil, receives one span per superstep/broadcast/charge
	// with the charged rounds and words attached, tagged with traceTag (the
	// engine passes the sample index). Observation only: nothing in the
	// simulator ever reads the trace back, so traced and untraced runs are
	// byte-identical in outputs and accounting.
	trace    *obs.Trace
	traceTag int64
}

// New returns a simulator with n machines. It returns an error for n < 1.
func New(n int) (*Sim, error) {
	if n < 1 {
		return nil, fmt.Errorf("clique: need at least 1 machine, got %d", n)
	}
	return &Sim{
		n:       n,
		inboxes: make([][]Message, n),
	}, nil
}

// MustNew is New for sizes known valid at the call site.
func MustNew(n int) *Sim {
	s, err := New(n)
	if err != nil {
		panic(err)
	}
	return s
}

// EnableTrace turns on per-superstep statistics collection (used by the
// load-balance experiment E5).
func (s *Sim) EnableTrace() { s.traceStats = true }

// Stats returns the recorded per-superstep statistics (empty unless
// EnableTrace was called before the supersteps of interest).
func (s *Sim) Stats() []StepStat {
	out := make([]StepStat, len(s.stats))
	copy(out, s.stats)
	return out
}

// SetTrace attaches an observation trace: every subsequent superstep,
// broadcast, and round charge records a span carrying its charged rounds and
// words, tagged with tag (the engine uses the per-request sample index). A
// nil tr detaches. Tracing never alters execution, charging, or randomness.
func (s *Sim) SetTrace(tr *obs.Trace, tag int64) {
	s.trace = tr
	s.traceTag = tag
}

// Trace returns the attached observation trace (nil when untraced) — for
// protocol layers that hang their own spans off the same trace.
func (s *Sim) Trace() *obs.Trace { return s.trace }

// TraceSpan opens a span on the attached trace, pre-tagged with the sample
// tag; the inert zero Span when untraced.
func (s *Sim) TraceSpan(name string) obs.Span {
	if s.trace == nil {
		return obs.Span{}
	}
	sp := s.trace.StartSpan(name)
	sp.SetInt("sample", s.traceTag)
	return sp
}

// endStepSpan closes a superstep span with its charged accounting attached.
// Every superstep variant funnels through it, which is what makes "spans
// with a words attribute" equal Stats.Supersteps and the rounds attributes
// sum to Stats.Rounds — the invariant the engine's trace test pins.
func endStepSpan(sp obs.Span, rounds int, words int64) {
	sp.SetInt("rounds", int64(rounds))
	sp.SetInt("words", words)
	sp.End()
}

// N reports the number of machines.
func (s *Sim) N() int { return s.n }

// Rounds reports the total simulated communication rounds charged so far.
func (s *Sim) Rounds() int { return s.rounds }

// Supersteps reports the number of supersteps executed.
func (s *Sim) Supersteps() int { return s.supersteps }

// TotalWords reports the total number of message words transported.
func (s *Sim) TotalWords() int64 { return s.totalWords }

// Step names for ChargeRounds. They are constants so that a traced charge
// names its span without building a string: a traced request keeps one span
// per charge, and a fresh name for each would grow the heap with traffic.
const (
	ChargeFastMatmul    = "charge:fast-matmul"
	ChargeSchurShortcut = "charge:schur+shortcut"
)

// ChargeRounds adds k rounds to the accounting without moving messages. It
// models subroutines whose round cost is taken from the literature rather
// than simulated message-by-message (the fast matrix multiplication backend
// charges its Õ(n^α) here). step (ChargeFastMatmul or ChargeSchurShortcut)
// names the step in the stats and the trace when enabled.
func (s *Sim) ChargeRounds(k int, step string) error {
	if k < 0 {
		return fmt.Errorf("clique: cannot charge negative rounds (%d)", k)
	}
	s.rounds += k
	if s.traceStats {
		s.stats = append(s.stats, StepStat{Name: step, Rounds: k})
	}
	if s.trace != nil {
		sp := s.TraceSpan(step)
		sp.SetInt("rounds", int64(k))
		sp.End()
	}
	return nil
}

// Superstep runs one bulk-synchronous step: every machine's fn consumes its
// inbox and produces outgoing messages; the simulator validates
// destinations, charges rounds from the maximum per-machine send/receive
// load, and delivers messages into the next inboxes sorted by (From, Tag).
//
// It returns the first error returned by any machine, in machine order, and
// leaves the simulator's inboxes empty in that case.
func (s *Sim) Superstep(name string, fn StepFunc) error {
	sp := s.TraceSpan(name) // spans the compute AND the routing accounting
	outs := make([][]Message, s.n)
	errs := make([]error, s.n)

	// Machines compute independently between rounds; on multi-core hosts
	// they run as goroutines (the natural Go model of the machines' local
	// computation), while on a single core the scheduler overhead buys
	// nothing and a sequential sweep is semantically identical.
	if forceParallel || (runtime.NumCPU() > 1 && s.n >= parallelThreshold) {
		var wg sync.WaitGroup
		wg.Add(s.n)
		for id := 0; id < s.n; id++ {
			go func(id int) {
				defer wg.Done()
				out, err := fn(id, s.inboxes[id])
				outs[id], errs[id] = out, err
			}(id)
		}
		wg.Wait()
	} else {
		for id := 0; id < s.n; id++ {
			outs[id], errs[id] = fn(id, s.inboxes[id])
		}
	}

	for id, err := range errs {
		if err != nil {
			s.clearInboxes()
			return fmt.Errorf("clique: superstep %q machine %d: %w", name, id, err)
		}
	}

	send := make([]int, s.n)
	recv := make([]int, s.n)
	recvMsgs := make([]int, s.n)
	next := make([][]Message, s.n)
	var total int
	for from := 0; from < s.n; from++ {
		for _, m := range outs[from] {
			if m.To < 0 || m.To >= s.n {
				s.clearInboxes()
				return fmt.Errorf("clique: superstep %q machine %d sent to invalid machine %d", name, from, m.To)
			}
			m.From = from
			w := len(m.Words)
			send[from] += w
			recv[m.To] += w
			recvMsgs[m.To]++
			total += w
			next[m.To] = append(next[m.To], m)
		}
	}

	maxLoad := 0
	maxSend, maxRecv, maxRecvMsg := 0, 0, 0
	for id := 0; id < s.n; id++ {
		if send[id] > maxSend {
			maxSend = send[id]
		}
		if recv[id] > maxRecv {
			maxRecv = recv[id]
		}
		if recvMsgs[id] > maxRecvMsg {
			maxRecvMsg = recvMsgs[id]
		}
	}
	if maxSend > maxLoad {
		maxLoad = maxSend
	}
	if maxRecv > maxLoad {
		maxLoad = maxRecv
	}
	rounds := roundsFor(maxLoad, s.n)

	// Deterministic inbox order regardless of goroutine scheduling.
	for id := 0; id < s.n; id++ {
		msgs := next[id]
		sort.SliceStable(msgs, func(i, j int) bool {
			if msgs[i].From != msgs[j].From {
				return msgs[i].From < msgs[j].From
			}
			return msgs[i].Tag < msgs[j].Tag
		})
		s.inboxes[id] = msgs
		if len(msgs) > 0 {
			s.inboxDirty = true
		}
	}

	s.rounds += rounds
	s.supersteps++
	s.totalWords += int64(total)
	if s.traceStats {
		s.stats = append(s.stats, StepStat{
			Name:       name,
			Rounds:     rounds,
			MaxSend:    maxSend,
			MaxRecv:    maxRecv,
			TotalWords: total,
			MaxRecvMsg: maxRecvMsg,
		})
	}
	endStepSpan(sp, rounds, int64(total))
	return nil
}

func (s *Sim) clearInboxes() {
	if !s.inboxDirty {
		return
	}
	for i := range s.inboxes {
		s.inboxes[i] = nil
	}
	s.inboxDirty = false
}

// Broadcast delivers the same words from machine `from` to every machine
// (including itself) as a Tag-tagged message, charging the cost of the
// standard two-phase congested clique broadcast: the source spreads distinct
// words across machines (one round per ceil(w/n) words) and every machine
// re-broadcasts its share (each machine then sends and receives at most
// ceil(w/n)*n words). Total charge: 2*ceil(w/n) rounds.
//
// The paper uses exactly this primitive when the leader broadcasts the
// vertex set S with |S| = O(sqrt(n)) "in two rounds" (§2.1.3).
func (s *Sim) Broadcast(from, tag int, words []Word) error {
	if from < 0 || from >= s.n {
		return fmt.Errorf("clique: broadcast from invalid machine %d", from)
	}
	w := len(words)
	rounds := broadcastRounds(w, s.n)
	msg := Message{From: from, Tag: tag, Words: words}
	for id := 0; id < s.n; id++ {
		m := msg
		m.To = id
		// Words are shared read-only; receivers must not mutate them.
		s.inboxes[id] = append(s.inboxes[id], m)
	}
	s.inboxDirty = true
	s.rounds += rounds
	s.supersteps++
	s.totalWords += int64(w * s.n)
	if s.traceStats {
		s.stats = append(s.stats, StepStat{Name: "broadcast", Rounds: rounds, MaxSend: w * s.n, MaxRecv: w, TotalWords: w * s.n})
	}
	if s.trace != nil {
		endStepSpan(s.TraceSpan("broadcast"), rounds, int64(w*s.n))
	}
	return nil
}
