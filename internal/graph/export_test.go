package graph

// RemoveEdge lets the external tests delete an edge, which public graph
// mutation never does.
func RemoveEdge(g *Graph, u, v int) { g.removeEdge(u, v) }
