// Package multigraph implements undirected multigraphs with integer edge
// multiplicities, together with the graph measures the emulation lower-bound
// machinery needs: distances, diameter, average distance, connectivity, and
// bisection width.
//
// Vertices are dense integers 0..N()-1. An edge {u,v} carries a multiplicity
// m >= 1; the paper's "E(G)", the number of simple edges, is the sum of
// multiplicities over all vertex pairs. Self-loops are rejected: a message
// from a processor to itself needs no link, and the paper's traffic
// multigraphs never contain them.
package multigraph

import (
	"fmt"
	"sort"
)

// Multigraph is an undirected multigraph on a fixed vertex set.
// The zero value is an empty graph on zero vertices; use New for a graph
// with vertices.
type Multigraph struct {
	n     int
	adj   []map[int]int64 // adj[u][v] = multiplicity of edge {u,v}; mirrored
	edges int64           // sum of multiplicities over unordered pairs
}

// New returns an empty multigraph on n vertices.
func New(n int) *Multigraph {
	if n < 0 {
		panic(fmt.Sprintf("multigraph: negative vertex count %d", n))
	}
	return &Multigraph{n: n, adj: make([]map[int]int64, n)}
}

// N returns the number of vertices.
func (g *Multigraph) N() int { return g.n }

// E returns the number of simple edges: the sum of multiplicities over all
// unordered vertex pairs. This is the paper's E(G).
func (g *Multigraph) E() int64 { return g.edges }

// DistinctEdges returns the number of unordered vertex pairs joined by at
// least one edge.
func (g *Multigraph) DistinctEdges() int {
	c := 0
	for u := 0; u < g.n; u++ {
		for v := range g.adj[u] {
			if v > u {
				c++
			}
		}
	}
	return c
}

func (g *Multigraph) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("multigraph: vertex %d out of range [0,%d)", u, g.n))
	}
}

// AddEdge adds mult parallel edges between u and v. It panics on self-loops,
// out-of-range vertices, or non-positive multiplicity.
func (g *Multigraph) AddEdge(u, v int, mult int64) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("multigraph: self-loop on vertex %d", u))
	}
	if mult <= 0 {
		panic(fmt.Sprintf("multigraph: non-positive multiplicity %d", mult))
	}
	if g.adj[u] == nil {
		g.adj[u] = make(map[int]int64)
	}
	if g.adj[v] == nil {
		g.adj[v] = make(map[int]int64)
	}
	g.adj[u][v] += mult
	g.adj[v][u] += mult
	g.edges += mult
}

// AddSimpleEdge adds a single edge between u and v.
func (g *Multigraph) AddSimpleEdge(u, v int) { g.AddEdge(u, v, 1) }

// RemoveEdge removes mult parallel edges between u and v, or all of them if
// mult exceeds the current multiplicity. It reports how many were removed.
func (g *Multigraph) RemoveEdge(u, v int, mult int64) int64 {
	g.check(u)
	g.check(v)
	cur := g.adj[u][v]
	if cur == 0 || mult <= 0 {
		return 0
	}
	if mult > cur {
		mult = cur
	}
	if mult == cur {
		delete(g.adj[u], v)
		delete(g.adj[v], u)
	} else {
		g.adj[u][v] -= mult
		g.adj[v][u] -= mult
	}
	g.edges -= mult
	return mult
}

// Multiplicity returns the multiplicity of edge {u,v} (0 if absent).
func (g *Multigraph) Multiplicity(u, v int) int64 {
	g.check(u)
	g.check(v)
	return g.adj[u][v]
}

// HasEdge reports whether at least one edge joins u and v.
func (g *Multigraph) HasEdge(u, v int) bool { return g.Multiplicity(u, v) > 0 }

// Neighbors returns the distinct neighbours of u in ascending order.
func (g *Multigraph) Neighbors(u int) []int {
	g.check(u)
	out := make([]int, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// VisitNeighbors calls fn(v, mult) for each distinct neighbour v of u, in
// unspecified order. It avoids the allocation of Neighbors for hot loops.
func (g *Multigraph) VisitNeighbors(u int, fn func(v int, mult int64)) {
	g.check(u)
	for v, m := range g.adj[u] {
		fn(v, m)
	}
}

// Degree returns the degree of u counting multiplicities.
func (g *Multigraph) Degree(u int) int64 {
	g.check(u)
	var d int64
	for _, m := range g.adj[u] {
		d += m
	}
	return d
}

// Clone returns a deep copy of g.
func (g *Multigraph) Clone() *Multigraph {
	h := New(g.n)
	h.edges = g.edges
	for u := 0; u < g.n; u++ {
		if g.adj[u] == nil {
			continue
		}
		h.adj[u] = make(map[int]int64, len(g.adj[u]))
		for v, m := range g.adj[u] {
			h.adj[u][v] = m
		}
	}
	return h
}

// Edge is an unordered edge with its multiplicity, reported with U < V.
type Edge struct {
	U, V int
	Mult int64
}

// Edges returns all distinct edges with U < V, sorted lexicographically.
func (g *Multigraph) Edges() []Edge {
	out := make([]Edge, 0, g.DistinctEdges())
	for u := 0; u < g.n; u++ {
		for v, m := range g.adj[u] {
			if v > u {
				out = append(out, Edge{U: u, V: v, Mult: m})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// String returns a short human-readable summary.
func (g *Multigraph) String() string {
	return fmt.Sprintf("multigraph{n=%d, E=%d, pairs=%d}", g.n, g.edges, g.DistinctEdges())
}
