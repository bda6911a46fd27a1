// Package faultinject is the test-only fault-injection harness behind the
// engine's chaos suite: named injection sites threaded through the layers
// whose failures the serving stack must degrade through — scheduler slot
// grants, sampler execution (including panics), and the client and router
// network legs.
//
// Contract: the package is nil-safe and effectively free when disarmed —
// every Hook call is a single atomic load and return until a test (or the
// SPANTREED_FAULT env spec) arms a fault with Set/Configure.
// Production code therefore threads the sites unconditionally; nothing is
// build-tagged.
//
// The chaos suite (internal/engine/chaos_test.go) asserts the standing
// degradation contract under every site: a request either returns output
// byte-identical to the no-fault run (the fault was absorbed by a retry or
// failover) or fails with a typed error — never wrong bytes, never a wedged
// daemon. Injection never becomes a correctness mechanism:
// no site alters what a successful sample computes.
package faultinject
