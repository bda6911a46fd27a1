package clique

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// roundsFor is the Lenzen-routing charge: a pattern whose maximum
// per-machine send/receive load is maxLoad words costs ceil(maxLoad/n)
// rounds, minimum 1.
func roundsFor(maxLoad, n int) int {
	if maxLoad > n {
		return (maxLoad + n - 1) / n
	}
	return 1
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
	stats      []StepStat

	// materialize selects the executor of declared supersteps (exec.go):
	// false, the charged executor, for every Sim from New; true only for a
	// Sim from NewMaterializing. plan is the reusable cost plan both
	// executors charge a declared superstep from, and peaks the loadless
	// one a Bulk step's charged form records its peaks in.
	materialize bool
	plan        *CostPlan
	peaks       CostPlan
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
	return &Sim{n: n}, nil
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
