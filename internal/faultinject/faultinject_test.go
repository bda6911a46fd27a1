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

func TestClearDisarmsOneSite(t *testing.T) {
	defer Reset()
	if err := Set(PointSample, Fault{Err: ErrInjected}); err != nil {
		t.Fatal(err)
	}
	if err := Set(PointRouterProxy, Fault{Err: ErrInjected}); err != nil {
		t.Fatal(err)
	}
	Clear(PointSample)
	if err := Hook(PointSample); err != nil {
		t.Fatalf("cleared site still injects: %v", err)
	}
	if err := Hook(PointRouterProxy); !errors.Is(err, ErrInjected) {
		t.Fatalf("sibling site was disarmed by Clear: %v", err)
	}
	Clear(PointRouterProxy)
	// With every site cleared the package is back on the zero-cost fast path.
	if err := Hook(PointRouterProxy); err != nil {
		t.Fatalf("fully cleared registry still injects: %v", err)
	}
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

func TestConfigureActions(t *testing.T) {
	defer Reset()

	// error
	if err := Configure("engine/sample=error"); err != nil {
		t.Fatal(err)
	}
	if err := Hook(PointSample); !errors.Is(err, ErrInjected) {
		t.Fatalf("configured error fault = %v", err)
	}
	Reset()

	// delay
	if err := Configure("scheduler/acquire=delay:20ms"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Hook(PointSchedAcquire); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("configured delay slept %v", elapsed)
	}
	Reset()

	// panic with default message
	if err := Configure("engine/sample=panic"); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("configured panic did not panic")
			}
		}()
		Hook(PointSample)
	}()
	Reset()

	// after prefix + multi-site spec
	if err := Configure("engine/sample=after1-error; router/proxy=error"); err != nil {
		t.Fatal(err)
	}
	if err := Hook(PointSample); err != nil {
		t.Fatalf("after-window firing injected early: %v", err)
	}
	if err := Hook(PointSample); !errors.Is(err, ErrInjected) {
		t.Fatalf("after-window second firing = %v", err)
	}
	if err := Hook(PointRouterProxy); !errors.Is(err, ErrInjected) {
		t.Fatalf("second spec entry not armed: %v", err)
	}
}

func TestConfigureRejectsBadSpecs(t *testing.T) {
	defer Reset()
	bad := []string{
		"nonsense",                   // no point=action
		"no/such/site=error",         // unknown point
		"engine/sample=zap",          // unknown action
		"engine/sample=delay:zzz",    // unparseable duration
		"engine/sample=afterX-error", // non-numeric after count
		"engine/sample=after2error",  // missing dash after the count
	}
	for _, spec := range bad {
		Reset()
		if err := Configure(spec); err == nil {
			t.Errorf("Configure(%q) accepted", spec)
		}
	}
	// Empty segments are tolerated (trailing semicolons from shell quoting).
	Reset()
	if err := Configure(" ; engine/sample=error ; "); err != nil {
		t.Errorf("spec with empty segments rejected: %v", err)
	}
}

func TestTimeoutActionLooksLikeNetError(t *testing.T) {
	defer Reset()
	if err := Configure("client/do=timeout"); err != nil {
		t.Fatal(err)
	}
	err := Hook(PointClientDo)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("configured timeout fault = %v", err)
	}
	var ne interface{ Timeout() bool }
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("injected timeout does not satisfy net.Error Timeout(): %v", err)
	}
	if Hits(PointClientDo) != 1 {
		t.Fatalf("hits = %d, want 1", Hits(PointClientDo))
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
