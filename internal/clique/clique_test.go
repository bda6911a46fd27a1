package clique

import (
	"errors"
	"reflect"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("expected error for n=0")
	}
	s, err := New(4)
	if err != nil || s.N() != 4 || s.Rounds() != 0 {
		t.Errorf("New(4) = %v, %v", s, err)
	}
}

func TestWordRoundTrip(t *testing.T) {
	if IntWord(12345).Int() != 12345 {
		t.Error("int word round trip failed")
	}
	f := 0.6180339887
	if FloatWord(f).Float() != f {
		t.Error("float word round trip failed")
	}
}

// executors are the two executors of a declared superstep.
var executors = []struct {
	name string
	new  func(int) *Sim
}{{"charged", MustNew}, {"materializing", NewMaterializing}}

// msg is a test payload: vals, one word each, and its sender, which costs
// no word (Decode reads it from the link).
type msg struct {
	from int
	vals []int
}

// testStep declares a superstep of msg payloads.
func testStep(name string, send func(o *Out[msg]) error, recv func(to int, m msg)) *Step[msg] {
	return &Step[msg]{
		Name:   name,
		Send:   send,
		Recv:   recv,
		Encode: func(dst []Word, m msg) []Word { return AppendInts(dst, m.vals...) },
		Decode: func(from int, ws []Word) msg { return msg{from, Ints(ws)} },
	}
}

// send emits vals from machine from to machine to.
func send(o *Out[msg], from, to int, vals ...int) {
	o.From(from)
	o.Send(to, len(vals), msg{from, vals})
}

// TestSuperstepDelivery: every machine sends its id to the next one, and
// each receiver gets the payload and its sender.
func TestSuperstepDelivery(t *testing.T) {
	for _, ex := range executors {
		s := ex.new(3)
		got := make([]msg, 3)
		st := testStep("send", func(o *Out[msg]) error {
			for id := 0; id < 3; id++ {
				send(o, id, (id+1)%3, 10+id)
			}
			return nil
		}, func(to int, m msg) { got[to] = m })
		if err := Run(s, st); err != nil {
			t.Fatalf("%s: %v", ex.name, err)
		}
		for id, m := range got {
			want := (id + 2) % 3
			if m.from != want || len(m.vals) != 1 || m.vals[0] != 10+want {
				t.Errorf("%s: machine %d got %+v, want from %d value %d", ex.name, id, m, want, 10+want)
			}
		}
		if s.Rounds() != 1 {
			t.Errorf("%s: rounds = %d, want 1", ex.name, s.Rounds())
		}
	}
}

// runRounds runs one step of msg payloads on a fresh n-clique of each
// executor and requires the given round charge.
func runRounds(t *testing.T, n, want int, sendAll func(o *Out[msg])) {
	t.Helper()
	for _, ex := range executors {
		s := ex.new(n)
		st := testStep("x", func(o *Out[msg]) error { sendAll(o); return nil }, nil)
		if err := Run(s, st); err != nil {
			t.Fatalf("%s: %v", ex.name, err)
		}
		if s.Rounds() != want {
			t.Errorf("%s: rounds = %d, want %d", ex.name, s.Rounds(), want)
		}
	}
}

func TestSuperstepRoundCharging(t *testing.T) {
	// Machine 0 sends 4*3=12 words to machine 1: load 12, n=4 => 3 rounds.
	runRounds(t, 4, 3, func(o *Out[msg]) { send(o, 0, 1, make([]int, 12)...) })
}

func TestSuperstepReceiveLoadCharged(t *testing.T) {
	// All 4 machines send 4 words to machine 0: recv load 16 => 4 rounds.
	runRounds(t, 4, 4, func(o *Out[msg]) {
		for id := 0; id < 4; id++ {
			send(o, id, 0, make([]int, 4)...)
		}
	})
}

func TestSuperstepBalancedIsOneRound(t *testing.T) {
	// Every machine sends 1 word to every machine: send=recv=8=n => 1 round.
	runRounds(t, 8, 1, func(o *Out[msg]) {
		for id := 0; id < 8; id++ {
			for to := 0; to < 8; to++ {
				send(o, id, to, id)
			}
		}
	})
}

// TestSuperstepErrorPropagation: a Send error is the superstep's error, and
// the failed superstep charges nothing.
func TestSuperstepErrorPropagation(t *testing.T) {
	sentinel := errors.New("boom")
	for _, ex := range executors {
		s := ex.new(3)
		st := testStep("fail", func(o *Out[msg]) error {
			send(o, 0, 0, 1)
			return sentinel
		}, nil)
		if err := Run(s, st); !errors.Is(err, sentinel) {
			t.Errorf("%s: error not propagated: %v", ex.name, err)
		}
		if s.Rounds() != 0 || s.Supersteps() != 0 || s.TotalWords() != 0 {
			t.Errorf("%s: failed superstep charged (%d rounds, %d steps, %d words)", ex.name, s.Rounds(), s.Supersteps(), s.TotalWords())
		}
	}
}

func TestSuperstepInvalidDestination(t *testing.T) {
	for _, ex := range executors {
		st := testStep("bad", func(o *Out[msg]) error {
			send(o, 0, 5)
			return nil
		}, nil)
		if err := Run(ex.new(2), st); err == nil {
			t.Errorf("%s: expected error for invalid destination", ex.name)
		}
	}
}

// TestInboxDeterministicOrder pins the delivery order: the charged executor
// delivers in send order, the materializing one by receiving machine, then
// sending machine, then send order. Senders run in descending order here,
// so the two differ; that is why no receiver's state may depend on the
// order of different senders' messages.
func TestInboxDeterministicOrder(t *testing.T) {
	const n = 16
	for _, ex := range executors {
		var log [][2]int // (from, seq) at machine 0
		st := testStep("fanin", func(o *Out[msg]) error {
			for id := n - 1; id >= 0; id-- {
				send(o, id, 0, 0)
				send(o, id, 1, 0)
				send(o, id, 0, 1)
			}
			return nil
		}, func(to int, m msg) {
			if to == 0 {
				log = append(log, [2]int{m.from, m.vals[0]})
			}
		})
		if err := Run(ex.new(n), st); err != nil {
			t.Fatal(err)
		}
		for i, got := range log {
			from := i / 2
			if ex.name == "charged" {
				from = n - 1 - i/2
			}
			if want := [2]int{from, i % 2}; got != want {
				t.Errorf("%s: delivery %d = (from, seq) %v, want %v", ex.name, i, got, want)
			}
		}
		if len(log) != 2*n {
			t.Errorf("%s: %d deliveries at machine 0, want %d", ex.name, len(log), 2*n)
		}
	}
}

func TestChargeRounds(t *testing.T) {
	s := MustNew(4)
	if err := s.ChargeRounds(10, "matmul"); err != nil {
		t.Fatal(err)
	}
	if s.Rounds() != 10 {
		t.Errorf("rounds = %d, want 10", s.Rounds())
	}
	if err := s.ChargeRounds(-1, "bad"); err == nil {
		t.Error("expected error for negative charge")
	}
}

// TestBroadcast: a 3-word broadcast on 5 machines costs 2 rounds and 15
// words on both executors; only the materializing one packs the payload,
// and it refuses a payload of the wrong width.
func TestBroadcast(t *testing.T) {
	for _, ex := range executors {
		s := ex.new(5)
		s.EnableTrace()
		packs := 0
		pack := func(dst []Word) []Word {
			packs++
			return AppendInts(dst, 7, 8, 9)
		}
		if err := RunBroadcast(s, 2, 3, pack); err != nil {
			t.Fatalf("%s: %v", ex.name, err)
		}
		want := []StepStat{{Name: "broadcast", Rounds: 2, MaxSend: 15, MaxRecv: 3, TotalWords: 15}}
		if !reflect.DeepEqual(s.Stats(), want) || s.Rounds() != 2 || s.Supersteps() != 1 || s.TotalWords() != 15 {
			t.Errorf("%s: stats %+v, counters (%d, %d, %d)", ex.name, s.Stats(), s.Rounds(), s.Supersteps(), s.TotalWords())
		}
		if wantPacks := map[string]int{"charged": 0, "materializing": 1}[ex.name]; packs != wantPacks {
			t.Errorf("%s: payload packed %d times, want %d", ex.name, packs, wantPacks)
		}
		err := RunBroadcast(s, 2, 4, pack)
		if (err != nil) != (ex.name == "materializing") {
			t.Errorf("%s: 3-word payload charged as 4 words: error %v", ex.name, err)
		}
	}
}

func TestBroadcastLarge(t *testing.T) {
	for _, ex := range executors {
		s := ex.new(4)
		pack := func(dst []Word) []Word { return append(dst, make([]Word, 10)...) }
		if err := RunBroadcast(s, 0, 10, pack); err != nil {
			t.Fatal(err)
		}
		// ceil(10/4) = 3 phases of 2 rounds.
		if s.Rounds() != 6 {
			t.Errorf("%s: rounds = %d, want 6", ex.name, s.Rounds())
		}
		if err := RunBroadcast(s, 9, 0, func(dst []Word) []Word { return dst }); err == nil {
			t.Errorf("%s: expected error for invalid source", ex.name)
		}
	}
}

func TestTraceStats(t *testing.T) {
	for _, ex := range executors {
		s := ex.new(3)
		s.EnableTrace()
		st := testStep("a", func(o *Out[msg]) error {
			send(o, 0, 1, make([]int, 5)...)
			send(o, 0, 2, 0)
			return nil
		}, nil)
		if err := Run(s, st); err != nil {
			t.Fatal(err)
		}
		want := []StepStat{{Name: "a", Rounds: 2, MaxSend: 6, MaxRecv: 5, TotalWords: 6, MaxRecvMsg: 1}}
		if got := s.Stats(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stats = %+v, want %+v", ex.name, got, want)
		}
	}
}

// TestChargeStepName: ChargeRounds records its step under the constant name
// the caller passes, so a traced charge builds no string.
func TestChargeStepName(t *testing.T) {
	if ChargeFastMatmul != "charge:fast-matmul" || ChargeSchurShortcut != "charge:schur+shortcut" {
		t.Fatalf("charge step names = %q, %q", ChargeFastMatmul, ChargeSchurShortcut)
	}
	s := MustNew(2)
	s.EnableTrace()
	if err := s.ChargeRounds(3, ChargeFastMatmul); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); len(st) != 1 || st[0].Name != "charge:fast-matmul" || st[0].Rounds != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTotalWordsAccounting(t *testing.T) {
	for _, ex := range executors {
		s := ex.new(2)
		st := testStep("x", func(o *Out[msg]) error {
			for id := 0; id < 2; id++ {
				send(o, id, 0, 1, 2, 3)
			}
			return nil
		}, nil)
		if err := Run(s, st); err != nil {
			t.Fatal(err)
		}
		if s.TotalWords() != 6 {
			t.Errorf("%s: TotalWords = %d, want 6", ex.name, s.TotalWords())
		}
		if s.Supersteps() != 1 {
			t.Errorf("%s: Supersteps = %d, want 1", ex.name, s.Supersteps())
		}
	}
}
