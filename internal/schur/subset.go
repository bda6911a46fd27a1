package schur

import (
	"fmt"
	"sort"
)

// Subset is a subset S of the vertices of an n-vertex graph with a fixed
// (sorted) local ordering, plus the complement ordering. The paper's S is
// "the unvisited vertices plus the last vertex visited in the previous
// phase" (§2.2); this type is the bookkeeping for the V -> S index maps.
type Subset struct {
	n          int
	vertices   []int // sorted members of S
	complement []int // sorted members of V \ S
	localOf    []int // vertex -> index in vertices, or -1
	coLocalOf  []int // vertex -> index in complement, or -1
}

// NewSubset builds the subset of [0, n) containing the given vertices. It
// returns an error for out-of-range or duplicate vertices or an empty
// subset. S = V (empty complement) is allowed: the Schur complement then
// degenerates to the graph itself, which is exactly what phase 1 uses.
func NewSubset(n int, vertices []int) (*Subset, error) {
	if n < 1 {
		return nil, fmt.Errorf("schur: subset of empty vertex universe")
	}
	if len(vertices) == 0 {
		return nil, fmt.Errorf("schur: empty subset")
	}
	s := &Subset{
		n:         n,
		vertices:  make([]int, len(vertices)),
		localOf:   make([]int, n),
		coLocalOf: make([]int, n),
	}
	copy(s.vertices, vertices)
	sort.Ints(s.vertices)
	for i := range s.localOf {
		s.localOf[i] = -1
		s.coLocalOf[i] = -1
	}
	for i, v := range s.vertices {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("schur: vertex %d out of range [0,%d)", v, n)
		}
		if s.localOf[v] != -1 {
			return nil, fmt.Errorf("schur: duplicate vertex %d in subset", v)
		}
		s.localOf[v] = i
	}
	for v := 0; v < n; v++ {
		if s.localOf[v] == -1 {
			s.coLocalOf[v] = len(s.complement)
			s.complement = append(s.complement, v)
		}
	}
	return s, nil
}

// N reports the size of the universe.
func (s *Subset) N() int { return s.n }

// Size reports |S|.
func (s *Subset) Size() int { return len(s.vertices) }

// Vertices returns the sorted members of S (a copy).
func (s *Subset) Vertices() []int {
	out := make([]int, len(s.vertices))
	copy(out, s.vertices)
	return out
}

// Contains reports whether v is in S.
func (s *Subset) Contains(v int) bool {
	return v >= 0 && v < s.n && s.localOf[v] != -1
}

// LocalIndex returns the index of v within the sorted subset, or an error if
// v is not a member.
func (s *Subset) LocalIndex(v int) (int, error) {
	if v < 0 || v >= s.n || s.localOf[v] == -1 {
		return 0, fmt.Errorf("schur: vertex %d not in subset", v)
	}
	return s.localOf[v], nil
}

// VertexAt returns the vertex at local index i.
func (s *Subset) VertexAt(i int) (int, error) {
	if i < 0 || i >= len(s.vertices) {
		return 0, fmt.Errorf("schur: local index %d out of range [0,%d)", i, len(s.vertices))
	}
	return s.vertices[i], nil
}
