package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/prng"
)

// workload is one traffic mix: a generated 3-regular graph of n vertices,
// sampled k trees per stream request by the named sampler, through a single
// node or through a router in front of one replica.
type workload struct {
	name    string
	index   int // 1-based; part of every seed base the workload derives
	n       int
	sampler string
	k       int
	router  bool
}

// workloads are the benchmark's traffic mixes. README.md records why each
// was chosen and which layers it stresses. router-n32 runs the exact
// sampler because at n=32 the phase sampler's matching placement fails on
// about one seed base in 100k trees, and the benchmark's workloads must not
// fail; the exact sampler places midpoints directly and never matches.
var workloads = []workload{
	{name: "phase-n96", index: 1, n: 96, sampler: "phase", k: 8},
	{name: "router-n32", index: 2, n: 32, sampler: "exact", k: 32, router: true},
	{name: "exact-n96", index: 3, n: 96, sampler: "exact", k: 8},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// Client ids reserved beside the load clients 0..nproc-1.
const (
	clientSetup  = 250 // the k=1 first-tree request of each cold boot
	clientVerify = 251 // the fixed verification set
	clientTrace  = 252 // the sequential per-layer replay set
)

// seedBase derives the seed base of one request. Bits 56-63 hold the
// workload index, 48-55 the client, 24-47 a hash of the workload seed and
// 0-23 the request number, so seed bases never repeat across workloads,
// clients or requests of one run: every request is fresh traffic.
func seedBase(seed uint64, w workload, client, req int) uint64 {
	h := prng.New(seed).Uint64() & (1<<24 - 1)
	return uint64(w.index)<<56 | uint64(client&0xff)<<48 | h<<24 | uint64(req)&(1<<24-1)
}

// makeGraph generates the workload's graph from the seed: a connected
// 3-regular graph on n vertices. Workloads of equal n share it.
func makeGraph(seed uint64, n int) (*graph.Graph, error) {
	return graph.RandomRegular(n, 3, prng.New(seed).Split(uint64(n)))
}

// wireEdges is the explicit edge list the graph is registered with.
func wireEdges(g *graph.Graph) [][2]int {
	es := g.Edges()
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{e.U, e.V}
	}
	return out
}

// graphFromWire rebuilds the graph exactly as spantreed does from a
// registration body, so in-process sampling sees the daemon's adjacency order.
func graphFromWire(n int, edges [][2]int) (*graph.Graph, error) {
	g, err := graph.New(n)
	if err != nil {
		return nil, err
	}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1], 1); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// checkTree reports why an encoded tree line ("u-v;u-v;...") is not a
// spanning tree of g: it needs n-1 distinct edges of g and no cycle.
func checkTree(g *graph.Graph, enc string) error {
	n := g.N()
	parts := strings.Split(enc, ";")
	if enc == "" {
		parts = nil
	}
	if len(parts) != n-1 {
		return fmt.Errorf("tree has %d edges, want %d", len(parts), n-1)
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, p := range parts {
		us, vs, ok := strings.Cut(p, "-")
		u, err1 := strconv.Atoi(us)
		v, err2 := strconv.Atoi(vs)
		if !ok || err1 != nil || err2 != nil || u < 0 || v < 0 || u >= n || v >= n {
			return fmt.Errorf("malformed edge %q", p)
		}
		if !g.HasEdge(u, v) {
			return fmt.Errorf("edge %d-%d is not in the graph", u, v)
		}
		ru, rv := find(u), find(v)
		if ru == rv {
			return fmt.Errorf("edge %d-%d repeats an edge or closes a cycle", u, v)
		}
		parent[ru] = rv
	}
	return nil
}
