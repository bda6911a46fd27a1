package faultinject

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestSetRejectsUnknownPoint(t *testing.T) {
	defer Reset()
	if err := Set("no/such/site", Fault{Err: ErrInjected}); err == nil {
		t.Fatal("unknown injection point accepted")
	}
	if Hook("no/such/site") != nil {
		t.Fatal("rejected point still injects")
	}
}

func TestDisabledIsInert(t *testing.T) {
	defer Reset()
	if err := Hook(PointSample); err != nil {
		t.Fatalf("disabled Hook returned %v", err)
	}
	if Hits(PointSample) != 0 {
		t.Fatal("hits counted without any armed fault")
	}
}

func TestHookErrorAndHits(t *testing.T) {
	defer Reset()
	if err := Set(PointSample, Fault{Err: ErrInjected}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := Hook(PointSample); !errors.Is(err, ErrInjected) {
			t.Fatalf("firing %d: Hook = %v, want ErrInjected", i, err)
		}
	}
	if got := Hits(PointSample); got != 3 {
		t.Fatalf("Hits = %d, want 3", got)
	}
	// An armed site does not bleed into other sites.
	if err := Hook(PointRouterProxy); err != nil {
		t.Fatalf("unarmed site injected: %v", err)
	}
	if Hits(PointRouterProxy) != 0 {
		t.Fatal("unarmed site counted a hit")
	}
}

func TestAfterWindow(t *testing.T) {
	defer Reset()
	if err := Set(PointClientDo, Fault{Err: ErrInjected, After: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := Hook(PointClientDo); err != nil {
			t.Fatalf("firing %d should be skipped, got %v", i, err)
		}
	}
	if err := Hook(PointClientDo); !errors.Is(err, ErrInjected) {
		t.Fatalf("third firing = %v, want ErrInjected", err)
	}
	if got := Hits(PointClientDo); got != 1 {
		t.Fatalf("Hits = %d, want 1 (skipped firings are not hits)", got)
	}
}

func TestTimesWindow(t *testing.T) {
	defer Reset()
	if err := Set(PointSample, Fault{Err: ErrInjected, Times: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := Hook(PointSample); !errors.Is(err, ErrInjected) {
			t.Fatalf("firing %d = %v, want ErrInjected", i, err)
		}
	}
	if err := Hook(PointSample); err != nil {
		t.Fatalf("exhausted fault still fired: %v", err)
	}
	if got := Hits(PointSample); got != 2 {
		t.Fatalf("Hits = %d, want 2", got)
	}
}

func TestDelayAndPanic(t *testing.T) {
	defer Reset()
	const d = 30 * time.Millisecond
	if err := Set(PointSchedAcquire, Fault{Delay: d}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Hook(PointSchedAcquire); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < d {
		t.Fatalf("delay fault slept %v, want >= %v", elapsed, d)
	}

	if err := Set(PointSample, Fault{Panic: "boom"}); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("panic fault did not panic")
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "boom") {
				t.Fatalf("panic value %v, want message containing %q", r, "boom")
			}
		}()
		Hook(PointSample)
	}()
}

func TestResetDisarmsEverything(t *testing.T) {
	if err := Set(PointSample, Fault{Err: ErrInjected}); err != nil {
		t.Fatal(err)
	}
	if err := Hook(PointSample); !errors.Is(err, ErrInjected) {
		t.Fatal("arming failed")
	}
	Reset()
	if err := Hook(PointSample); err != nil {
		t.Fatalf("Hook after Reset = %v", err)
	}
	if Hits(PointSample) != 0 {
		t.Fatal("Reset did not zero the hit counters")
	}
}

func TestTransportPointsRegistered(t *testing.T) {
	defer Reset()
	for _, p := range []Point{PointClientDo, PointRouterProxy} {
		if err := Set(p, Fault{Err: ErrInjected}); err != nil {
			t.Errorf("Set(%q) = %v", p, err)
		}
	}
}
