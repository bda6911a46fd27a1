package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
)

// FromEdgeList builds an n-vertex graph from [u, v] or [u, v, weight]
// entries (weight 1 when omitted) — the edge-list form graphs travel in as
// JSON. Endpoints arrive as float64s, so each must be an exact integer.
func FromEdgeList(n int, edges [][]float64) (*Graph, error) {
	g, err := New(n)
	if err != nil {
		return nil, err
	}
	for i, e := range edges {
		if len(e) != 2 && len(e) != 3 {
			return nil, fmt.Errorf("edge %d: want [u, v] or [u, v, weight], got %v", i, e)
		}
		u, v := int(e[0]), int(e[1])
		if float64(u) != e[0] || float64(v) != e[1] {
			return nil, fmt.Errorf("edge %d: non-integer endpoints %v", i, e)
		}
		w := 1.0
		if len(e) == 3 {
			w = e[2]
		}
		if err := g.AddEdge(u, v, w); err != nil {
			return nil, fmt.Errorf("edge %d: %w", i, err)
		}
	}
	return g, nil
}

// Digest hashes the graph's full structure — vertex count, edge count, and
// every edge with its weight's exact bit pattern — so two graphs share a
// digest iff they are the same weighted graph.
func (g *Graph) Digest() [32]byte {
	h := sha256.New()
	var scratch [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	put(uint64(g.N()))
	put(uint64(g.M()))
	for _, e := range g.Edges() {
		put(uint64(e.U))
		put(uint64(e.V))
		put(math.Float64bits(e.Weight))
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}
