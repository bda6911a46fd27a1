package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

func TestRingOrderIndependent(t *testing.T) {
	a := NewRing([]string{"http://a:1", "http://b:2", "http://c:3"}, 64)
	b := NewRing([]string{"http://c:3", "http://a:1", "http://b:2", "http://a:1"}, 64)
	if !reflect.DeepEqual(a.Endpoints(), b.Endpoints()) {
		t.Fatalf("endpoint sets differ: %v vs %v", a.Endpoints(), b.Endpoints())
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("graph-%d", i)
		if !reflect.DeepEqual(a.Replicas(key, 1), b.Replicas(key, 1)) {
			t.Fatalf("owner(%q) differs across construction orders", key)
		}
		if !reflect.DeepEqual(a.Replicas(key, 2), b.Replicas(key, 2)) {
			t.Fatalf("replicas(%q) differ across construction orders", key)
		}
	}
}

func TestRingReplicasDistinctAndOwnerFirst(t *testing.T) {
	eps := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	r := NewRing(eps, 0) // default vnodes
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("graph-%d", i)
		reps := r.Replicas(key, 3)
		if len(reps) != 3 {
			t.Fatalf("replicas(%q, 3) = %v", key, reps)
		}
		if owner := r.Replicas(key, 1); reps[0] != owner[0] {
			t.Fatalf("replicas(%q)[0] = %q, owner = %q", key, reps[0], owner[0])
		}
		seen := map[string]bool{}
		for _, ep := range reps {
			if seen[ep] {
				t.Fatalf("replicas(%q) repeats %q: %v", key, ep, reps)
			}
			seen[ep] = true
		}
	}
	// Asking for more replicas than members clamps to the member count.
	if got := r.Replicas("k", 99); len(got) != len(eps) {
		t.Fatalf("replicas(k, 99) returned %d endpoints", len(got))
	}
}

func TestRingStability(t *testing.T) {
	// Removing one endpoint only moves keys that endpoint owned — the
	// consistent-hashing contract that makes replica loss cheap.
	before := NewRing([]string{"http://a:1", "http://b:2", "http://c:3"}, 0)
	after := NewRing([]string{"http://a:1", "http://b:2"}, 0)
	moved := 0
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("graph-%d", i)
		was, is := before.Replicas(key, 1)[0], after.Replicas(key, 1)[0]
		if was != "http://c:3" && was != is {
			t.Fatalf("key %q moved from surviving endpoint %q to %q", key, was, is)
		}
		if was == "http://c:3" {
			moved++
		}
	}
	if moved == 0 || moved == 500 {
		t.Fatalf("implausible moved-key count %d/500", moved)
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing([]string{"http://a:1", "http://b:2", "http://c:3"}, 0)
	owned := map[string]int{}
	for i := 0; i < 3000; i++ {
		owned[r.Replicas(fmt.Sprintf("graph-%d", i), 1)[0]]++
	}
	// Range over the members, not the counts, so an endpoint that owns no
	// key at all is reported too.
	for _, ep := range r.Endpoints() {
		if n := owned[ep]; n < 500 || n > 1500 {
			t.Errorf("endpoint %s owns %d/3000 keys — badly unbalanced", ep, n)
		}
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	empty := NewRing(nil, 0)
	if empty.Replicas("k", 1) != nil || empty.Replicas("k", 2) != nil || empty.Len() != 0 {
		t.Error("empty ring should resolve nothing")
	}
	solo := NewRing([]string{"http://a:1"}, 0)
	if got := solo.Replicas("k", 1); len(got) != 1 || got[0] != "http://a:1" {
		t.Errorf("single-endpoint ring owner = %v", got)
	}
	if got := solo.Replicas("k", 3); len(got) != 1 {
		t.Errorf("single-endpoint ring replicas = %v", got)
	}
}
