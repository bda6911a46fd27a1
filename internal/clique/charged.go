package clique

import "fmt"

// CostPlan records the communication pattern of one superstep as
// per-machine word and message loads, and ChargedSuperstep charges rounds
// from it, so two plans that count the same messages yield identical Stats
// and traces (MaxRecvMsg included). The charged executor fills one from a
// declared superstep's sends as they are emitted, the materializing
// executor from the packed messages (exec.go).
//
// A plan is single-use state for one superstep; Reset recycles it across
// consecutive supersteps of the same protocol to avoid reallocation.
type CostPlan struct {
	n     int
	loads []load // by machine
	total int64
	err   error
	// bad is the last message Add refused. Every refused message has an
	// out-of-range machine or a negative width, so the zero triple means
	// none; recording it without a call keeps Add small enough to inline,
	// and it is called once per message the charged executor sends.
	bad [3]int
	// Running maxima over the loads, maintained incrementally so
	// ChargedSuperstep reads the per-machine load extremes in O(1) instead of
	// rescanning the n loads per superstep. Sums are order-free, so the
	// incremental maxima equal what a final scan would compute.
	maxSend    int
	maxRecv    int
	maxRecvMsg int
}

// load is one machine's words sent, words received and messages received.
type load struct{ send, recv, msgs int }

// NewCostPlan returns an empty plan for an n-machine clique.
func NewCostPlan(n int) *CostPlan {
	return &CostPlan{n: n, loads: make([]load, n)}
}

// Reset clears the plan for reuse in a subsequent superstep.
func (p *CostPlan) Reset() {
	clear(p.loads)
	p.total = 0
	p.err = nil
	p.bad = [3]int{}
	p.maxSend, p.maxRecv, p.maxRecvMsg = 0, 0, 0
}

// Add records one message of `words` words from machine `from` to machine
// `to`. An out-of-range machine or a negative width poisons the plan;
// ChargedSuperstep surfaces the error.
func (p *CostPlan) Add(from, to, words int) {
	if max(uint(from), uint(to)) >= uint(len(p.loads)) || words < 0 {
		p.bad = [3]int{from, to, words}
		return
	}
	f, t := &p.loads[from], &p.loads[to]
	f.send += words
	t.recv += words
	t.msgs++
	p.total += int64(words)
	p.maxSend = max(p.maxSend, f.send)
	p.maxRecv = max(p.maxRecv, t.recv)
	p.maxRecvMsg = max(p.maxRecvMsg, t.msgs)
}

// SetPeaks records a pattern by its extremes alone: the most words any
// machine sends, the most words and the most messages any machine
// receives, and the total words. A superstep charged from them costs what
// adding its messages one by one would, so a protocol that derives them in
// bulk (Bulk's charged form) calls it on a fresh plan instead of Add.
func (p *CostPlan) SetPeaks(maxSend, maxRecv, maxRecvMsg int, total int64) {
	p.maxSend, p.maxRecv, p.maxRecvMsg, p.total = maxSend, maxRecv, maxRecvMsg, total
}

// check reports the plan's first error, or the message Add refused.
func (p *CostPlan) check() error {
	from, to, words := p.bad[0], p.bad[1], p.bad[2]
	switch {
	case p.err != nil:
		return p.err
	case uint(from) >= uint(p.n):
		return fmt.Errorf("clique: plan message from invalid machine %d", from)
	case uint(to) >= uint(p.n):
		return fmt.Errorf("clique: plan message to invalid machine %d", to)
	case words < 0:
		return fmt.Errorf("clique: negative plan charge (%d words)", words)
	}
	return nil
}

// Exchange records the dense bipartite pattern where every machine in froms
// sends one wordsPer-word message to every machine in tos, in O(|froms| +
// |tos|) bookkeeping for the |froms|·|tos| messages. Either list may contain
// repeats (a machine owning several pair states sends once per state); each
// occurrence contributes its own messages, exactly as the equivalent nested
// Add loop would record them.
func (p *CostPlan) Exchange(froms, tos []int, wordsPer int) {
	if p.err != nil {
		return
	}
	if wordsPer < 0 {
		p.err = fmt.Errorf("clique: negative plan charge (%d words)", wordsPer)
		return
	}
	for _, from := range froms {
		if from < 0 || from >= p.n {
			p.err = fmt.Errorf("clique: plan message from invalid machine %d", from)
			return
		}
		f := &p.loads[from]
		f.send += wordsPer * len(tos)
		p.maxSend = max(p.maxSend, f.send)
	}
	for _, to := range tos {
		if to < 0 || to >= p.n {
			p.err = fmt.Errorf("clique: plan message to invalid machine %d", to)
			return
		}
		t := &p.loads[to]
		t.recv += wordsPer * len(froms)
		t.msgs += len(froms)
		p.maxRecv = max(p.maxRecv, t.recv)
		p.maxRecvMsg = max(p.maxRecvMsg, t.msgs)
	}
	p.total += int64(wordsPer) * int64(len(froms)) * int64(len(tos))
}

// AllToAll records the balanced pairwise-exchange pattern of machines
// 0..d-1: every participant sends one wordsPer-word message to every
// participant (itself included) — the Algorithm 1 step 3 column
// redistribution shape. O(d) bookkeeping for the d² messages.
func (p *CostPlan) AllToAll(d, wordsPer int) {
	if p.err != nil {
		return
	}
	if d < 0 || d > p.n {
		p.err = fmt.Errorf("clique: all-to-all over %d machines on an %d-clique", d, p.n)
		return
	}
	if wordsPer < 0 {
		p.err = fmt.Errorf("clique: negative plan charge (%d words)", wordsPer)
		return
	}
	for id := range p.loads[:d] {
		l := &p.loads[id]
		l.send += wordsPer * d
		l.recv += wordsPer * d
		l.msgs += d
		p.maxSend = max(p.maxSend, l.send)
		p.maxRecv = max(p.maxRecv, l.recv)
		p.maxRecvMsg = max(p.maxRecvMsg, l.msgs)
	}
	p.total += int64(wordsPer) * int64(d) * int64(d)
}

// ChargedSuperstep runs one bulk-synchronous step without delivering
// messages: the machines' combined logic executes as plain sequential
// computation (local; nil for steps whose work was folded into a
// neighboring step) and the communication is charged from plan — rounds
// from the maximum per-machine load (roundsFor), and the word and
// superstep counters and the per-step trace
// (MaxSend/MaxRecv/TotalWords/MaxRecvMsg) advanced from its loads. A nil
// plan declares a computation-only superstep (zero traffic, 1 round). Both
// executors charge every declared superstep but a broadcast here, which is
// what the executor goldens rely on.
func (s *Sim) ChargedSuperstep(name string, plan *CostPlan, local func() error) error {
	sp := s.TraceSpan(name) // spans the local compute AND the charge
	// local runs before the plan is read, so a step may declare its pattern
	// while computing (the binary-search tally does: which vertices appear
	// in a prefix is what both the messages and the result depend on).
	if local != nil {
		if err := local(); err != nil {
			return fmt.Errorf("clique: superstep %q: %w", name, err)
		}
	}
	if plan != nil {
		if err := plan.check(); err != nil {
			return fmt.Errorf("clique: superstep %q: %w", name, err)
		}
		if plan.n != s.n {
			return fmt.Errorf("clique: superstep %q plan sized for %d machines, clique has %d", name, plan.n, s.n)
		}
	}
	maxSend, maxRecv, maxRecvMsg := 0, 0, 0
	var total int64
	if plan != nil {
		maxSend, maxRecv, maxRecvMsg = plan.maxSend, plan.maxRecv, plan.maxRecvMsg
		total = plan.total
	}
	rounds := roundsFor(max(maxSend, maxRecv), s.n)
	s.rounds += rounds
	s.supersteps++
	s.totalWords += total
	if s.traceStats {
		s.stats = append(s.stats, StepStat{
			Name:       name,
			Rounds:     rounds,
			MaxSend:    maxSend,
			MaxRecv:    maxRecv,
			TotalWords: int(total),
			MaxRecvMsg: maxRecvMsg,
		})
	}
	endStepSpan(sp, rounds, total)
	return nil
}

// ChargeBroadcast charges a w-word broadcast from one machine to every
// machine (itself included) in the standard two-phase congested clique
// pattern: the source spreads distinct words across the machines, one round
// per ceil(w/n) words, and every machine re-broadcasts its share. That is
// 2·ceil(w/n) rounds and w·n words. The paper uses exactly this primitive
// when the leader broadcasts the vertex set S with |S| = O(sqrt(n)) "in two
// rounds" (§2.1.3). The receivers read the payload from shared memory.
func (s *Sim) ChargeBroadcast(w int) error {
	if w < 0 {
		return fmt.Errorf("clique: negative broadcast size %d", w)
	}
	rounds := 2
	if w > s.n {
		rounds = 2 * ((w + s.n - 1) / s.n)
	}
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
