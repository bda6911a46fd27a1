package clique

import (
	"errors"
	"fmt"
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

func TestSuperstepDelivery(t *testing.T) {
	s := MustNew(3)
	// Every machine sends its id to machine (id+1)%3.
	err := s.Superstep("send", func(id int, in []Message) ([]Message, error) {
		if len(in) != 0 {
			return nil, fmt.Errorf("unexpected inbox of size %d", len(in))
		}
		return []Message{{To: (id + 1) % 3, Tag: 7, Words: []Word{IntWord(id)}}}, nil
	})
	if err != nil {
		t.Fatalf("superstep 1: %v", err)
	}
	if s.Rounds() != 1 {
		t.Errorf("rounds = %d, want 1", s.Rounds())
	}
	err = s.Superstep("check", func(id int, in []Message) ([]Message, error) {
		if len(in) != 1 {
			return nil, fmt.Errorf("machine %d inbox size %d, want 1", id, len(in))
		}
		want := (id + 2) % 3
		if got := in[0].Words[0].Int(); got != want {
			return nil, fmt.Errorf("machine %d got %d, want %d", id, got, want)
		}
		if in[0].From != want || in[0].Tag != 7 {
			return nil, fmt.Errorf("metadata wrong: %+v", in[0])
		}
		return nil, nil
	})
	if err != nil {
		t.Fatalf("superstep 2: %v", err)
	}
}

func TestSuperstepRoundCharging(t *testing.T) {
	s := MustNew(4)
	// Machine 0 sends 4*3=12 words to machine 1: load 12, n=4 => 3 rounds.
	err := s.Superstep("heavy", func(id int, in []Message) ([]Message, error) {
		if id != 0 {
			return nil, nil
		}
		return []Message{{To: 1, Words: make([]Word, 12)}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Rounds() != 3 {
		t.Errorf("rounds = %d, want 3 (12 words / 4 machines)", s.Rounds())
	}
}

func TestSuperstepReceiveLoadCharged(t *testing.T) {
	s := MustNew(4)
	// All 4 machines send 4 words to machine 0: recv load 16 => 4 rounds.
	err := s.Superstep("fanin", func(id int, in []Message) ([]Message, error) {
		return []Message{{To: 0, Words: make([]Word, 4)}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Rounds() != 4 {
		t.Errorf("rounds = %d, want 4 (16 words into one machine / 4)", s.Rounds())
	}
}

func TestSuperstepBalancedIsOneRound(t *testing.T) {
	s := MustNew(8)
	// Every machine sends 1 word to every machine: send=recv=8=n => 1 round.
	err := s.Superstep("alltoall", func(id int, in []Message) ([]Message, error) {
		out := make([]Message, 0, 8)
		for to := 0; to < 8; to++ {
			out = append(out, Message{To: to, Words: []Word{IntWord(id)}})
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Rounds() != 1 {
		t.Errorf("rounds = %d, want 1 for a perfectly balanced all-to-all", s.Rounds())
	}
}

func TestSuperstepErrorPropagation(t *testing.T) {
	s := MustNew(3)
	sentinel := errors.New("boom")
	err := s.Superstep("fail", func(id int, in []Message) ([]Message, error) {
		if id == 1 {
			return nil, sentinel
		}
		return []Message{{To: 0, Words: []Word{IntWord(1)}}}, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("error not propagated: %v", err)
	}
	// Inboxes must be cleared after failure.
	err = s.Superstep("after", func(id int, in []Message) ([]Message, error) {
		if len(in) != 0 {
			return nil, fmt.Errorf("stale inbox after error")
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSuperstepInvalidDestination(t *testing.T) {
	s := MustNew(2)
	err := s.Superstep("bad", func(id int, in []Message) ([]Message, error) {
		return []Message{{To: 5}}, nil
	})
	if err == nil {
		t.Error("expected error for invalid destination")
	}
}

func TestInboxDeterministicOrder(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		s := MustNew(16)
		err := s.Superstep("fanin", func(id int, in []Message) ([]Message, error) {
			return []Message{
				{To: 0, Tag: 1, Words: []Word{IntWord(id)}},
				{To: 0, Tag: 0, Words: []Word{IntWord(id)}},
			}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		err = s.Superstep("check", func(id int, in []Message) ([]Message, error) {
			if id != 0 {
				return nil, nil
			}
			for i, m := range in {
				wantFrom, wantTag := i/2, i%2
				if m.From != wantFrom || m.Tag != wantTag {
					return nil, fmt.Errorf("inbox[%d] = from %d tag %d, want from %d tag %d", i, m.From, m.Tag, wantFrom, wantTag)
				}
			}
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
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

func TestBroadcast(t *testing.T) {
	s := MustNew(5)
	words := []Word{IntWord(7), IntWord(8), IntWord(9)}
	if err := s.Broadcast(2, 4, words); err != nil {
		t.Fatal(err)
	}
	if s.Rounds() != 2 {
		t.Errorf("rounds = %d, want 2 for w <= n broadcast", s.Rounds())
	}
	err := s.Superstep("check", func(id int, in []Message) ([]Message, error) {
		if len(in) != 1 || in[0].From != 2 || in[0].Tag != 4 || len(in[0].Words) != 3 {
			return nil, fmt.Errorf("machine %d bad broadcast inbox %+v", id, in)
		}
		if in[0].Words[1].Int() != 8 {
			return nil, fmt.Errorf("payload corrupted")
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastLarge(t *testing.T) {
	s := MustNew(4)
	if err := s.Broadcast(0, 0, make([]Word, 10)); err != nil {
		t.Fatal(err)
	}
	// ceil(10/4) = 3 phases of 2 rounds.
	if s.Rounds() != 6 {
		t.Errorf("rounds = %d, want 6", s.Rounds())
	}
	if err := s.Broadcast(9, 0, nil); err == nil {
		t.Error("expected error for invalid source")
	}
}

func TestTraceStats(t *testing.T) {
	s := MustNew(3)
	s.EnableTrace()
	err := s.Superstep("a", func(id int, in []Message) ([]Message, error) {
		if id == 0 {
			return []Message{{To: 1, Words: make([]Word, 5)}, {To: 2, Words: make([]Word, 1)}}, nil
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if len(st) != 1 {
		t.Fatalf("stats len = %d, want 1", len(st))
	}
	if st[0].Name != "a" || st[0].MaxSend != 6 || st[0].MaxRecv != 5 || st[0].TotalWords != 6 || st[0].Rounds != 2 {
		t.Errorf("stats = %+v", st[0])
	}
	if st[0].MaxRecvMsg != 1 {
		t.Errorf("MaxRecvMsg = %d, want 1", st[0].MaxRecvMsg)
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
	s := MustNew(2)
	err := s.Superstep("x", func(id int, in []Message) ([]Message, error) {
		return []Message{{To: 0, Words: make([]Word, 3)}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalWords() != 6 {
		t.Errorf("TotalWords = %d, want 6", s.TotalWords())
	}
	if s.Supersteps() != 1 {
		t.Errorf("Supersteps = %d, want 1", s.Supersteps())
	}
}
