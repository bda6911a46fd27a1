package clique

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// encodeInts and decodeInts are the codec of the test program's steps.
func encodeInts(dst []Word, p []int) []Word { return AppendInts(dst, p...) }
func decodeInts(_ int, ws []Word) []int     { return Ints(ws) }

// program is one declared protocol: a leader scatter, a skewed gather, an
// all-to-all, a dense exchange with repeated units and a broadcast. Every
// receiver adds what it gets into sums (an order-free fold, as the executor
// rules require) and the dense receivers fill rows.
type program struct {
	sums []int
	rows [][]float64
}

func runProgram(t *testing.T, s *Sim) *program {
	t.Helper()
	n := s.N()
	pr := &program{sums: make([]int, n)}
	add := func(to int, p []int) {
		for _, v := range p {
			pr.sums[to] += v
		}
	}
	steps := []*Step[[]int]{
		// Leader scatters 3 words to every machine.
		{Name: "scatter", Send: func(o *Out[[]int]) error {
			o.From(0)
			for to := 0; to < n; to++ {
				o.Send(to, 3, []int{1, 2, to})
			}
			return nil
		}},
		// Skewed gather: machine i sends i+1 words to the leader — machine
		// n-1's n words push the leader's receive load to n(n+1)/2 > n,
		// charging multiple rounds.
		{Name: "gather", Send: func(o *Out[[]int]) error {
			for u := 0; u < n; u++ {
				o.From(u)
				p := make([]int, u+1)
				for i := range p {
					p[i] = u
				}
				o.Send(0, u+1, p)
			}
			return nil
		}},
		// Balanced all-to-all of 2 words per ordered pair.
		{Name: "alltoall", Send: func(o *Out[[]int]) error {
			for u := 0; u < n; u++ {
				o.From(u)
				for to := 0; to < n; to++ {
					o.Send(to, 2, []int{u, to})
				}
			}
			return nil
		}},
	}
	for _, st := range steps {
		st.Recv, st.Encode, st.Decode = add, encodeInts, decodeInts
		if err := Run(s, st); err != nil {
			t.Fatal(err)
		}
	}
	// Dense exchange: machine 1 hosts two sending units and machine 0 two
	// receiving units.
	from := []int{1, 1, 2, 3}
	to := []int{0, 0, 5, n - 1}
	pr.rows = make([][]float64, len(to))
	for b := range pr.rows {
		pr.rows[b] = make([]float64, len(from))
	}
	err := RunDense(s, &Dense{
		Name: "dense", From: from, To: to, Words: 4,
		Values: func(b int, row []float64) {
			for a := range row {
				row[a] = float64(a*100+b) + 0.5
			}
		},
		Into: func(b int) []float64 { return pr.rows[b] },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunBroadcast(s, 2, n+3, func(dst []Word) []Word { return append(dst, make([]Word, n+3)...) }); err != nil {
		t.Fatal(err)
	}
	if err := Local(s, "local", nil); err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestChargedMatchesFullStats runs one declared program on the charged
// executor and on the materializing executor and requires the same
// receiver state, counters and per-superstep trace, MaxRecvMsg included.
func TestChargedMatchesFullStats(t *testing.T) {
	const n = 16
	charged := MustNew(n)
	charged.EnableTrace()
	want := runProgram(t, charged)
	full := NewMaterializing(n)
	full.EnableTrace()
	got := runProgram(t, full)

	if !reflect.DeepEqual(got, want) {
		t.Errorf("receiver state differs:\nmaterializing %+v\ncharged       %+v", got, want)
	}
	if full.Rounds() != charged.Rounds() {
		t.Errorf("rounds %d (materializing) vs %d (charged)", full.Rounds(), charged.Rounds())
	}
	if full.Supersteps() != charged.Supersteps() {
		t.Errorf("supersteps %d vs %d", full.Supersteps(), charged.Supersteps())
	}
	if full.TotalWords() != charged.TotalWords() {
		t.Errorf("total words %d vs %d", full.TotalWords(), charged.TotalWords())
	}
	if !reflect.DeepEqual(full.Stats(), charged.Stats()) {
		t.Errorf("traces differ:\nmaterializing %+v\ncharged       %+v", full.Stats(), charged.Stats())
	}
	if want.sums[0] == 0 || want.rows[1][1] != 101.5 {
		t.Errorf("program delivered nothing: %+v", want)
	}
}

// TestMaterializingChecksWidth requires the materializing executor to refuse
// a payload that packs to a different width than the step charges — the
// check that keeps a declaration's charges honest.
func TestMaterializingChecksWidth(t *testing.T) {
	st := &Step[[]int]{
		Name: "wide",
		Send: func(o *Out[[]int]) error {
			o.From(0)
			o.Send(1, 2, []int{1, 2, 3})
			return nil
		},
		Encode: encodeInts, Decode: decodeInts,
	}
	if err := Run(MustNew(4), st); err != nil {
		t.Fatalf("charged executor: %v", err)
	}
	err := Run(NewMaterializing(4), st)
	if err == nil || !strings.Contains(err.Error(), "charged as 2 words") {
		t.Errorf("materializing executor: got %v, want a width error", err)
	}
	err = RunDense(NewMaterializing(4), &Dense{Name: "narrow", From: []int{0}, To: []int{1}, Words: 2,
		Values: func(int, []float64) {}, Into: func(int) []float64 { return make([]float64, 1) }})
	if err == nil {
		t.Error("materializing executor accepted a 3-word dense frame charged as 2 words")
	}
}

// TestChargedStepStatRegression pins the exact StepStat fields of one known
// pattern — the skewed gather on a 16-clique, where machine 15's 16-word
// message and the leader's 136 received words are the loads Lenzen's accounting
// turns into ceil(136/16) = 9 rounds.
func TestChargedStepStatRegression(t *testing.T) {
	const n = 16
	s := MustNew(n)
	s.EnableTrace()
	plan := NewCostPlan(n)
	for id := 0; id < n; id++ {
		plan.Add(id, 0, id+1)
	}
	if err := s.ChargedSuperstep("gather", plan, nil); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if len(st) != 1 {
		t.Fatalf("got %d trace entries, want 1", len(st))
	}
	want := StepStat{
		Name:       "gather",
		Rounds:     9,   // ceil(136/16)
		MaxSend:    16,  // machine 15
		MaxRecv:    136, // leader: 1+2+...+16
		TotalWords: 136,
		MaxRecvMsg: 16, // one message per machine, all to the leader
	}
	if st[0] != want {
		t.Errorf("StepStat = %+v, want %+v", st[0], want)
	}
	if s.Rounds() != 9 || s.Supersteps() != 1 || s.TotalWords() != 136 {
		t.Errorf("counters = (%d rounds, %d steps, %d words), want (9, 1, 136)",
			s.Rounds(), s.Supersteps(), s.TotalWords())
	}
}

// TestCostPlanValidation checks that invalid plans surface as superstep
// errors.
func TestCostPlanValidation(t *testing.T) {
	s := MustNew(4)
	plan := NewCostPlan(4)
	plan.Add(0, 7, 1)
	err := s.ChargedSuperstep("bad", plan, nil)
	if err == nil || !strings.Contains(err.Error(), "invalid machine") {
		t.Errorf("invalid destination: got %v", err)
	}
	wrong := NewCostPlan(5)
	if err := s.ChargedSuperstep("size", wrong, nil); err == nil {
		t.Error("mis-sized plan accepted")
	}
	if err := s.ChargedSuperstep("negative-bcast", nil, nil); err != nil {
		t.Errorf("nil plan should be a computation-only step: %v", err)
	}
	if err := s.ChargeBroadcast(-1); err == nil {
		t.Error("negative broadcast accepted")
	}
}

// TestCostPlanReuseMatchesFresh charges a run of supersteps over disjoint
// and overlapping machine sets twice: through one plan Reset between steps,
// and through a fresh plan per step. A load or a maximum the reset left
// behind would raise a later step's charge, so the traces and counters must
// agree exactly.
func TestCostPlanReuseMatchesFresh(t *testing.T) {
	const n = 16
	steps := []struct {
		name string
		fill func(p *CostPlan)
	}{
		{"sparse-low", func(p *CostPlan) {
			p.Add(0, 1, 5)
			p.Add(2, 1, 7)
			p.Add(3, 3, 2)
		}},
		{"dense", func(p *CostPlan) { p.Exchange([]int{4, 5, 5}, []int{6, 7}, 3) }},
		{"zero-width", func(p *CostPlan) {
			p.Add(8, 9, 0)
			p.Add(8, 9, 0)
			p.Add(10, 11, 1)
		}},
		{"alltoall", func(p *CostPlan) { p.AllToAll(3, 2) }},
		{"heavy", func(p *CostPlan) {
			for id := 12; id < n; id++ {
				p.Add(id, 12, 40)
			}
		}},
		{"light-after-heavy", func(p *CostPlan) {
			p.Add(13, 14, 1)
			p.Add(1, 2, 1)
		}},
		{"empty", func(*CostPlan) {}},
		{"exchange-after-empty", func(p *CostPlan) { p.Exchange([]int{15}, []int{0, 1, 2, 3}, 1) }},
	}
	reused, fresh := MustNew(n), MustNew(n)
	reused.EnableTrace()
	fresh.EnableTrace()
	plan := NewCostPlan(n)
	for _, st := range steps {
		plan.Reset()
		st.fill(plan)
		if err := reused.ChargedSuperstep(st.name, plan, nil); err != nil {
			t.Fatal(err)
		}
		p := NewCostPlan(n)
		st.fill(p)
		if err := fresh.ChargedSuperstep(st.name, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(reused.Stats(), fresh.Stats()) {
		t.Errorf("reused plan's trace differs:\n%+v\nfresh plans:\n%+v", reused.Stats(), fresh.Stats())
	}
	if reused.Rounds() != fresh.Rounds() || reused.Supersteps() != fresh.Supersteps() || reused.TotalWords() != fresh.TotalWords() {
		t.Errorf("counters differ: reused (%d,%d,%d) vs fresh (%d,%d,%d)",
			reused.Rounds(), reused.Supersteps(), reused.TotalWords(),
			fresh.Rounds(), fresh.Supersteps(), fresh.TotalWords())
	}
}

// TestBulkRunsItsForms: RunBulk runs the charged form on the charged
// executor and the declared messages on the materializing one, and a
// Charge that sets the pattern's peaks charges what the messages do.
// Machine 0 sends 3 words to each of machines 1..4 and 1 word to itself;
// machine 2 sends 2 words to machine 1.
func TestBulkRunsItsForms(t *testing.T) {
	b := &Bulk[msg]{
		Step: *testStep("bulk", func(o *Out[msg]) error {
			for to := 1; to <= 4; to++ {
				send(o, 0, to, 7, 8, 9)
			}
			send(o, 0, 0, 5)
			send(o, 2, 1, 6, 6)
			return nil
		}, nil),
		Charge: func(plan *CostPlan) error {
			plan.SetPeaks(13, 5, 2, 15)
			return nil
		},
	}
	var stats [][]StepStat
	for _, ex := range executors {
		s := ex.new(6)
		s.EnableTrace()
		if err := RunBulk(s, b); err != nil {
			t.Fatalf("%s: %v", ex.name, err)
		}
		stats = append(stats, s.Stats())
	}
	want := StepStat{Name: "bulk", Rounds: 3, MaxSend: 13, MaxRecv: 5, TotalWords: 15, MaxRecvMsg: 2}
	for i, ex := range executors {
		if !reflect.DeepEqual(stats[i], []StepStat{want}) {
			t.Errorf("%s: %+v, want %+v", ex.name, stats[i], want)
		}
	}

	b.Charge = func(*CostPlan) error { return errors.New("charged form ran") }
	if err := RunBulk(MustNew(6), b); err == nil {
		t.Error("charged executor did not run the charged form")
	}
	if err := RunBulk(NewMaterializing(6), b); err != nil {
		t.Errorf("materializing executor ran the charged form: %v", err)
	}
}
