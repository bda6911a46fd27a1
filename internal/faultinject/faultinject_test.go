package faultinject

import (
	"bytes"
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
	in := []byte("payload")
	if got := MutateBytes(PointBlobReadBytes, in); !bytes.Equal(got, in) {
		t.Fatalf("disabled MutateBytes changed bytes: %q", got)
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
	if err := Hook(PointBlobPut); err != nil {
		t.Fatalf("unarmed site injected: %v", err)
	}
	if Hits(PointBlobPut) != 0 {
		t.Fatal("unarmed site counted a hit")
	}
}

func TestAfterWindow(t *testing.T) {
	defer Reset()
	if err := Set(PointBlobRead, Fault{Err: ErrInjected, After: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := Hook(PointBlobRead); err != nil {
			t.Fatalf("firing %d should be skipped, got %v", i, err)
		}
	}
	if err := Hook(PointBlobRead); !errors.Is(err, ErrInjected) {
		t.Fatalf("third firing = %v, want ErrInjected", err)
	}
	if got := Hits(PointBlobRead); got != 1 {
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

func TestMutateBytes(t *testing.T) {
	defer Reset()
	if err := Set(PointBlobPayload, Fault{Mutate: func(b []byte) []byte { return b[:2] }}); err != nil {
		t.Fatal(err)
	}
	if got := MutateBytes(PointBlobPayload, []byte("abcdef")); string(got) != "ab" {
		t.Fatalf("mutate = %q, want %q", got, "ab")
	}
	if Hits(PointBlobPayload) != 1 {
		t.Fatal("mutate did not count as a hit")
	}
	// A Hook at a mutate-armed site injects no error.
	if err := Hook(PointBlobPayload); err != nil {
		t.Fatalf("mutate-only fault returned %v from Hook", err)
	}
}

func TestClearDisarmsOneSite(t *testing.T) {
	defer Reset()
	if err := Set(PointSample, Fault{Err: ErrInjected}); err != nil {
		t.Fatal(err)
	}
	if err := Set(PointBlobPut, Fault{Err: ErrInjected}); err != nil {
		t.Fatal(err)
	}
	Clear(PointSample)
	if err := Hook(PointSample); err != nil {
		t.Fatalf("cleared site still injects: %v", err)
	}
	if err := Hook(PointBlobPut); !errors.Is(err, ErrInjected) {
		t.Fatalf("sibling site was disarmed by Clear: %v", err)
	}
	Clear(PointBlobPut)
	// With every site cleared the package is back on the zero-cost fast path.
	if err := Hook(PointBlobPut); err != nil {
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

	// shortread truncates, and leaves already-short payloads alone
	if err := Configure("blobstore/get/bytes=shortread:3"); err != nil {
		t.Fatal(err)
	}
	if got := MutateBytes(PointBlobReadBytes, []byte("abcdef")); string(got) != "abc" {
		t.Fatalf("shortread = %q", got)
	}
	if got := MutateBytes(PointBlobReadBytes, []byte("ab")); string(got) != "ab" {
		t.Fatalf("shortread grew a short payload: %q", got)
	}
	Reset()

	// flipbit XORs bit 0 of the addressed byte, modulo length
	if err := Configure("blobstore/get/payload=flipbit:1"); err != nil {
		t.Fatal(err)
	}
	in := []byte{0x10, 0x20, 0x30}
	got := MutateBytes(PointBlobPayload, in)
	if got[0] != 0x10 || got[1] != 0x21 || got[2] != 0x30 {
		t.Fatalf("flipbit = %x", got)
	}
	if in[1] != 0x20 {
		t.Fatal("flipbit mutated the caller's slice in place")
	}
	Reset()

	// after prefix + multi-site spec
	if err := Configure("engine/sample=after1-error; blobstore/put=error"); err != nil {
		t.Fatal(err)
	}
	if err := Hook(PointSample); err != nil {
		t.Fatalf("after-window firing injected early: %v", err)
	}
	if err := Hook(PointSample); !errors.Is(err, ErrInjected) {
		t.Fatalf("after-window second firing = %v", err)
	}
	if err := Hook(PointBlobPut); !errors.Is(err, ErrInjected) {
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
		"engine/sample=shortread:-1", // negative length
		"engine/sample=shortread:x",  // non-numeric length
		"engine/sample=flipbit:x",    // non-numeric offset
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
