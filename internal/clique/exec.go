package clique

import (
	"fmt"
	"sort"
)

// NewMaterializing returns a simulator of n machines whose declared
// supersteps run on the materializing executor. It is a shared test helper:
// protocol tests reach it through an unexported constructor hook and check
// that it agrees with the charged executor; no serving path builds one.
func NewMaterializing(n int) *Sim {
	s := MustNew(n)
	s.materialize = true
	return s
}

// Plan returns the simulator's reusable plan, reset for one superstep
// that the caller charges through ChargedSuperstep before it asks for the
// plan again. Every declared superstep on either executor charges from it.
func (s *Sim) Plan() *CostPlan {
	if s.plan == nil {
		s.plan = NewCostPlan(s.n)
	}
	s.plan.Reset()
	return s.plan
}

// Step declares one sparse superstep. Send runs its sending units in
// order: each names its machine with Out.From and then emits its messages
// through Out.Send. A unit is a machine or one of several pieces of state a
// machine holds (a pair machine's pairs); Send is one function rather than
// one per unit because a call per unit would cost about as much as the
// unit's own work. Recv, if not nil, consumes one delivered payload at
// machine to.
// Encode appends a payload's words to dst. Decode reads them back at the
// receiver and is told the sending machine from, which a clique link
// carries at no cost in words. Only the materializing executor calls them.
// A Step value is reused across runs of the same superstep.
type Step[P any] struct {
	Name   string
	Send   func(out *Out[P]) error
	Recv   func(to int, p P)
	Encode func(dst []Word, p P) []Word
	Decode func(from int, words []Word) P

	out Out[P]
}

// Out is a sending unit's outbox during one run of a Step.
type Out[P any] struct {
	from int
	plan *CostPlan
	recv func(to int, p P)

	// Materializing executor only: the packed messages in send order, and
	// the first payload whose packed width differed from its charge.
	msgs   []packed
	encode func(dst []Word, p P) []Word
	err    error
}

// packed is one message on the materializing executor, its payload packed
// into words.
type packed struct {
	from, to int
	words    []Word
}

// From makes machine m the sender of the messages that follow.
func (o *Out[P]) From(m int) { o.from = m }

// Send emits one words-word message carrying p to machine to.
func (o *Out[P]) Send(to, words int, p P) {
	if o.encode != nil {
		o.pack(to, words, p)
		return
	}
	o.plan.Add(o.from, to, words)
	if o.recv != nil && uint(to) < uint(o.plan.n) {
		o.recv(to, p)
	}
}

// pack is Send on the materializing executor.
func (o *Out[P]) pack(to, words int, p P) {
	if o.err != nil {
		return
	}
	ws := o.encode(nil, p)
	if len(ws) != words {
		o.err = fmt.Errorf("machine %d packed a %d-word payload charged as %d words", o.from, len(ws), words)
	}
	o.msgs = append(o.msgs, packed{o.from, to, ws})
}

// send runs the step's Send on its outbox.
func (st *Step[P]) send() error { return st.Send(&st.out) }

// Run executes one declared superstep on s.
func Run[P any](s *Sim, st *Step[P]) error {
	if !s.materialize {
		plan := s.Plan()
		st.out = Out[P]{plan: plan, recv: st.Recv}
		return s.ChargedSuperstep(st.Name, plan, st.send)
	}
	st.out = Out[P]{encode: st.Encode}
	err := st.send()
	if err == nil {
		err = st.out.err
	}
	msgs := st.out.msgs
	st.out = Out[P]{}
	if err != nil {
		return fmt.Errorf("clique: superstep %q: %w", st.Name, err)
	}
	return s.route(st.Name, msgs, func(m packed) {
		if st.Recv != nil {
			st.Recv(m.to, st.Decode(m.from, m.words))
		}
	})
}

// route charges packed messages at their packed widths, then hands each
// one to recv in delivery order: by receiving machine, then sending
// machine, then send order. A message from or to an invalid machine is the
// superstep's error, before anything is delivered.
func (s *Sim) route(name string, msgs []packed, recv func(m packed)) error {
	plan := s.Plan()
	for _, m := range msgs {
		plan.Add(m.from, m.to, len(m.words))
	}
	if err := s.ChargedSuperstep(name, plan, nil); err != nil {
		return err
	}
	sort.SliceStable(msgs, func(i, j int) bool {
		if msgs[i].to != msgs[j].to {
			return msgs[i].to < msgs[j].to
		}
		return msgs[i].from < msgs[j].from
	})
	for _, m := range msgs {
		recv(m)
	}
	return nil
}

// Bulk declares a sparse superstep in two forms, the way Dense is one
// declaration with two: Step, the materializing form, emits every message;
// Charge, the charged form, records the pattern's peak loads in plan with
// CostPlan.SetPeaks and leaves the receivers the state Step's messages
// would, without emitting a message. Its plan holds no per-machine loads,
// so it costs nothing to reset, and Charge records through SetPeaks alone.
// A protocol uses it where it can derive a superstep's loads for far less
// than a call per message, such as a search that repeats the same
// superstep on nested prefixes; its own differential test must then check
// that both forms agree, since only the materializing one is checked
// message by message.
type Bulk[P any] struct {
	Step[P]
	Charge func(plan *CostPlan) error
}

// RunBulk executes one declared bulk superstep on s: the charged form on
// the charged executor, Step on the materializing one.
func RunBulk[P any](s *Sim, b *Bulk[P]) error {
	if s.materialize {
		return Run(s, &b.Step)
	}
	s.peaks = CostPlan{n: s.n}
	return s.ChargedSuperstep(b.Name, &s.peaks, func() error { return b.Charge(&s.peaks) })
}

// Dense declares the dense bipartite superstep: every unit of From sends
// one Words-word message to every unit of To. Entries are the units'
// machines; a machine listed twice hosts two units. Values(b, row) fills
// row[a] with the float unit From[a] sends unit To[b], and Into(b) is unit
// b's receive row, indexed by a. With Into nil, no receiver stores a
// payload (a request whose content the pattern itself implies) and Values
// may be nil.
//
// The charged executor charges the pattern in O(|From|+|To|) and has Values
// fill each receiver's row in place: the value function is stated per
// receiving row because a function call per entry would cost more than the
// entry itself. The materializing executor evaluates the rows, sends
// |From|·|To| messages framed as (a, b, value) and padded with zero words to
// the declared width, and stores each decoded value at its receiver.
type Dense struct {
	Name     string
	From, To []int
	Words    int
	Values   func(b int, row []float64)
	Into     func(b int) []float64
}

// RunDense executes one declared dense superstep on s.
func RunDense(s *Sim, d *Dense) error {
	if !s.materialize {
		plan := s.Plan()
		plan.Exchange(d.From, d.To, d.Words)
		return s.ChargedSuperstep(d.Name, plan, func() error {
			if d.Into != nil {
				for b := range d.To {
					d.Values(b, d.Into(b)[:len(d.From)])
				}
			}
			return nil
		})
	}
	frame := 2
	if d.Into != nil {
		frame = 3
	}
	if d.Words < frame {
		return fmt.Errorf("clique: superstep %q: a %d-word frame charged as %d words", d.Name, frame, d.Words)
	}
	rows := make([][]float64, len(d.To))
	for b := range rows {
		rows[b] = make([]float64, len(d.From))
		if d.Into != nil {
			d.Values(b, rows[b])
		}
	}
	msgs := make([]packed, 0, len(d.From)*len(d.To))
	for a, from := range d.From {
		for b, to := range d.To {
			ws := make([]Word, d.Words)
			ws[0], ws[1] = IntWord(a), IntWord(b)
			if d.Into != nil {
				ws[2] = FloatWord(rows[b][a])
			}
			msgs = append(msgs, packed{from, to, ws})
		}
	}
	return s.route(d.Name, msgs, func(m packed) {
		if d.Into != nil {
			d.Into(m.words[1].Int())[m.words[0].Int()] = m.words[2].Float()
		}
	})
}

// RunBroadcast executes a declared broadcast: machine from sends a w-word
// payload to every machine, in the two-phase pattern ChargeBroadcast
// charges. The receivers read the payload from shared state, read-only.
// pack appends the payload's words to dst; only the materializing executor
// calls it, to check the width.
func RunBroadcast(s *Sim, from, w int, pack func(dst []Word) []Word) error {
	if from < 0 || from >= s.n {
		return fmt.Errorf("clique: broadcast from invalid machine %d", from)
	}
	if s.materialize {
		if ws := pack(nil); len(ws) != w {
			return fmt.Errorf("clique: broadcast packed a %d-word payload charged as %d words", len(ws), w)
		}
	}
	return s.ChargeBroadcast(w)
}

// Local declares a superstep with no traffic: fn is the machines' local
// computation (nil when there is none), charged one round on either
// executor.
func Local(s *Sim, name string, fn func() error) error {
	return s.ChargedSuperstep(name, nil, fn)
}
