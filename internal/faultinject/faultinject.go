package faultinject

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one injection site. The constants below are the complete set
// of sites threaded through the codebase; Set rejects unknown names so a
// typo in a test fails loudly instead of silently injecting nothing.
type Point string

// The injection sites. Each name is `package/operation[/detail]`.
const (
	// PointSchedAcquire fires after a stream sample is granted a worker-pool
	// slot: an Err fails that sample (the stream aborts with a typed error),
	// a Delay models a stalled grant.
	PointSchedAcquire Point = "scheduler/acquire"
	// PointSample fires at the top of every engine sample dispatch: Panic
	// here exercises the per-sample panic isolation, Err a sampler runtime
	// failure, Delay a slow sampler.
	PointSample Point = "engine/sample"
	// PointClientDo fires before every outbound request the client package
	// issues: an Err models a connect failure (the failover client must move
	// to the next replica), a Delay a slow replica (which should trip the
	// hedging path).
	PointClientDo Point = "client/do"
	// PointRouterProxy fires before the router forwards a request to the
	// owning replica: an Err models the proxy leg failing so the router's own
	// failover (next replica in the set) is exercised without killing a
	// process.
	PointRouterProxy Point = "router/proxy"
)

// points lists every valid injection site for Set validation.
var points = map[Point]struct{}{
	PointSchedAcquire: {},
	PointSample:       {},
	PointClientDo:     {},
	PointRouterProxy:  {},
}

// Fault describes what happens when an armed injection site fires. Exactly
// the set fields apply: Delay sleeps first, then Panic panics, then Err is
// returned.
type Fault struct {
	// Err is returned by Hook at the site (sites document how they treat it).
	Err error
	// Delay is slept before the site proceeds (slow I/O, stalled grants).
	Delay time.Duration
	// Panic, when non-empty, makes Hook panic with this message.
	Panic string
	// After skips the first After firings of the site (fault the Nth
	// operation, not the first).
	After int64
	// Times bounds how often the fault fires (0: every time once past
	// After). A fired count excludes skipped firings.
	Times int64
}

// armedFault is a registered Fault plus its firing counters (kept out of the
// plain-value Fault so callers can pass faults by value).
type armedFault struct {
	Fault
	fired atomic.Int64
	seen  atomic.Int64
}

// armed reports whether this firing should inject, maintaining the
// After/Times windows.
func (f *armedFault) armed() bool {
	if f.seen.Add(1) <= f.After {
		return false
	}
	if f.Times > 0 && f.fired.Load() >= f.Times {
		return false
	}
	f.fired.Add(1)
	return true
}

// registry is the process-wide fault table. The active flag is the fast
// path: while no fault is armed every Hook call is one relaxed
// atomic load and an immediate return, so production binaries pay nothing
// for carrying the sites.
var (
	active atomic.Bool
	mu     sync.Mutex
	faults map[Point]*armedFault
	hits   map[Point]*atomic.Int64
)

// Set arms a fault at the named site (replacing any previous fault there)
// and enables injection. It returns an error for unknown site names.
func Set(p Point, f Fault) error {
	if _, ok := points[p]; !ok {
		return fmt.Errorf("faultinject: unknown injection point %q", p)
	}
	mu.Lock()
	defer mu.Unlock()
	if faults == nil {
		faults = make(map[Point]*armedFault)
		hits = make(map[Point]*atomic.Int64)
	}
	faults[p] = &armedFault{Fault: f}
	if hits[p] == nil {
		hits[p] = &atomic.Int64{}
	}
	active.Store(true)
	return nil
}

// Reset disarms every site and zeroes the hit counters — the test-teardown
// call. After Reset the package is back to its zero-cost disabled state.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	faults = nil
	hits = nil
	active.Store(false)
}

// Hits reports how many times the named site actually injected (not merely
// executed) since the last Reset — tests assert the fault they configured
// really fired, so a silently skipped injection point cannot pass as
// resilience.
func Hits(p Point) int64 {
	mu.Lock()
	defer mu.Unlock()
	if h := hits[p]; h != nil {
		return h.Load()
	}
	return 0
}

// lookup returns the armed fault for p, or nil. Fast path is lock-free.
func lookup(p Point) *armedFault {
	if !active.Load() {
		return nil
	}
	mu.Lock()
	f := faults[p]
	h := hits[p]
	mu.Unlock()
	if f == nil || !f.armed() {
		return nil
	}
	if h != nil {
		h.Add(1)
	}
	return f
}

// Hook fires the named site: nil (and near-zero cost) when no fault is
// armed; otherwise it sleeps Delay, panics Panic, and returns Err, in that
// order. Call it at error-capable sites.
func Hook(p Point) error {
	f := lookup(p)
	if f == nil {
		return nil
	}
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.Panic != "" {
		panic("faultinject: " + f.Panic)
	}
	return f.Err
}

// ErrInjected is a generic error for tests to arm at a site (Fault.Err);
// layers under test report it like any other I/O failure.
var ErrInjected = errors.New("faultinject: injected fault")
