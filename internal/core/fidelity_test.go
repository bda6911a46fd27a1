package core

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/mm"
	"repro/internal/prng"
)

// TestFidelityGolden is the charged-mode contract: for every (family, seed,
// sampler variant), the charged execution mode must produce the same tree
// and the same full Stats — rounds, supersteps, total words, phase shape —
// as the full message-materializing mode. The charged plans mirror the full
// path's messages one-for-one, so any drift here is a bug in a plan.
func TestFidelityGolden(t *testing.T) {
	for _, fam := range []string{"expander", "er", "lollipop", "complete"} {
		g, err := graph.FromFamily(fam, 24, prng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			tc, sc, err := Sample(g, Config{SimFidelity: "charged"}, prng.New(seed))
			if err != nil {
				t.Fatalf("%s seed %d charged: %v", fam, seed, err)
			}
			tf, sf, err := Sample(g, Config{SimFidelity: "full"}, prng.New(seed))
			if err != nil {
				t.Fatalf("%s seed %d full: %v", fam, seed, err)
			}
			if tc.Encode() != tf.Encode() {
				t.Errorf("%s seed %d: trees differ across fidelities", fam, seed)
			}
			if !reflect.DeepEqual(sc, sf) {
				t.Errorf("%s seed %d: stats differ:\ncharged %+v\nfull    %+v", fam, seed, sc, sf)
			}

			te, se, err := SampleExact(g, Config{SimFidelity: "charged"}, prng.New(seed))
			if err != nil {
				t.Fatalf("%s seed %d exact charged: %v", fam, seed, err)
			}
			tef, sef, err := SampleExact(g, Config{SimFidelity: "full"}, prng.New(seed))
			if err != nil {
				t.Fatalf("%s seed %d exact full: %v", fam, seed, err)
			}
			if te.Encode() != tef.Encode() {
				t.Errorf("%s seed %d: exact trees differ across fidelities", fam, seed)
			}
			if !reflect.DeepEqual(se, sef) {
				t.Errorf("%s seed %d: exact stats differ:\ncharged %+v\nfull    %+v", fam, seed, se, sef)
			}
		}
	}
}

// TestFidelityGoldenNaiveBackend checks the modes also agree under a
// dataflow matmul backend: fidelity only governs the protocol supersteps,
// while Naive's row broadcasts route real words in both modes.
func TestFidelityGoldenNaiveBackend(t *testing.T) {
	g, err := graph.FromFamily("expander", 16, prng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	tc, sc, err := Sample(g, Config{Backend: mm.Naive{}, SimFidelity: "charged"}, prng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	tf, sf, err := Sample(g, Config{Backend: mm.Naive{}, SimFidelity: "full"}, prng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if tc.Encode() != tf.Encode() || !reflect.DeepEqual(sc, sf) {
		t.Errorf("naive backend: fidelities disagree:\ncharged %+v\nfull    %+v", sc, sf)
	}
}

// TestFidelityPreparedWith checks the warm path: a Prepared configured with
// full fidelity serves the same draws as one configured charged, phase-0
// cache included, and Prepare rejects an unknown mode.
func TestFidelityPreparedWith(t *testing.T) {
	g, err := graph.FromFamily("expander", 20, prng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	charged, err := Prepare(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Prepare(g, Config{SimFidelity: "full"})
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(3); seed <= 4; seed++ {
		tc, sc, err := charged.SampleWith(prng.New(seed), SampleOpts{})
		if err != nil {
			t.Fatal(err)
		}
		tf, sf, err := full.SampleWith(prng.New(seed), SampleOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if tc.Encode() != tf.Encode() || !reflect.DeepEqual(sc, sf) {
			t.Errorf("seed %d: prepared fidelities drift:\ncharged %+v\nfull    %+v", seed, sc, sf)
		}
	}
	if _, err := Prepare(g, Config{SimFidelity: "warp"}); err == nil {
		t.Error("bogus fidelity accepted")
	}
}

// TestFidelityConfigValidation rejects unknown modes at config time.
func TestFidelityConfigValidation(t *testing.T) {
	g, err := graph.FromFamily("complete", 8, prng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Sample(g, Config{SimFidelity: "half"}, prng.New(1)); err == nil {
		t.Error("unknown fidelity accepted")
	}
}
