package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-endpoint virtual node count when NewRing is
// given zero. 128 vnodes keeps the expected load imbalance across a handful
// of replicas under a few percent while the ring stays small enough that a
// full rebuild (membership changes are rare) is microseconds.
const DefaultVirtualNodes = 128

// Ring is an immutable consistent-hash ring over replica endpoints. Each
// endpoint is hashed onto vnodes points; a key routes to the endpoint owning
// the first point clockwise from the key's hash. Construction sorts and
// dedupes the endpoint list, so two rings built from the same endpoint SET —
// in any order, with any duplicates — are identical, and every router and
// client in the cluster agrees on ownership and failover order. Build a new
// Ring on membership change; lookups on an existing Ring are lock-free.
type Ring struct {
	vnodes    int
	hashes    []uint64 // sorted vnode hashes
	owners    []string // owners[i] owns hashes[i]
	endpoints []string // sorted, deduped
}

// NewRing builds a ring over endpoints with the given virtual node count per
// endpoint (DefaultVirtualNodes when vnodes <= 0). An empty endpoint list
// yields a usable ring whose lookups return no owners.
func NewRing(endpoints []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	uniq := make([]string, 0, len(endpoints))
	seen := make(map[string]struct{}, len(endpoints))
	for _, ep := range endpoints {
		if ep == "" {
			continue
		}
		if _, dup := seen[ep]; dup {
			continue
		}
		seen[ep] = struct{}{}
		uniq = append(uniq, ep)
	}
	sort.Strings(uniq)
	r := &Ring{
		vnodes:    vnodes,
		hashes:    make([]uint64, 0, len(uniq)*vnodes),
		endpoints: uniq,
	}
	type pt struct {
		h  uint64
		ep string
	}
	pts := make([]pt, 0, len(uniq)*vnodes)
	for _, ep := range uniq {
		for i := 0; i < vnodes; i++ {
			pts = append(pts, pt{hashString(ep + "#" + strconv.Itoa(i)), ep})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].h != pts[j].h {
			return pts[i].h < pts[j].h
		}
		// Hash ties (vanishingly rare) break by endpoint name so the ring
		// stays a pure function of the endpoint set.
		return pts[i].ep < pts[j].ep
	})
	r.owners = make([]string, len(pts))
	for i, p := range pts {
		r.hashes = append(r.hashes, p.h)
		r.owners[i] = p.ep
	}
	return r
}

// hashString is the ring's hash: FNV-1a 64 (standard library, stable across
// platforms and releases) finished with a 64-bit avalanche mix. The mix is
// load-bearing: raw FNV-1a barely diffuses its final bytes, so the
// sequential suffixes this package feeds it ("ep#0", "ep#1", …, "graph-1",
// "graph-2", …) come out as near-consecutive values that collapse the ring
// into a few wide arcs owned by one endpoint.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Endpoints returns the ring's member endpoints, sorted. The slice is
// shared; do not mutate.
func (r *Ring) Endpoints() []string { return r.endpoints }

// Len returns the number of member endpoints.
func (r *Ring) Len() int { return len(r.endpoints) }

// Replicas returns up to n distinct endpoints for key in failover order: the
// owner first, then each next distinct endpoint clockwise. Every member of
// the cluster computes the same list, which is what lets a client fail over
// to exactly the replica the router would have chosen.
func (r *Ring) Replicas(key string, n int) []string {
	if len(r.hashes) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.endpoints) {
		n = len(r.endpoints)
	}
	kh := hashString(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= kh })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i := 0; i < len(r.hashes) && len(out) < n; i++ {
		ep := r.owners[(start+i)%len(r.hashes)]
		if _, dup := seen[ep]; dup {
			continue
		}
		seen[ep] = struct{}{}
		out = append(out, ep)
	}
	return out
}

// String describes the ring for logs.
func (r *Ring) String() string {
	return fmt.Sprintf("cluster.Ring{endpoints: %d, vnodes: %d}", len(r.endpoints), r.vnodes)
}
