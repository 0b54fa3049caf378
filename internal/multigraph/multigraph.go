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
	"slices"
)

// Multigraph is an undirected multigraph on a fixed vertex set. Each
// vertex keeps its distinct neighbours in ascending order, so every walk
// over the adjacency visits them in that one order.
// The zero value is an empty graph on zero vertices; use New for a graph
// with vertices.
type Multigraph struct {
	n     int
	nbrs  [][]int   // nbrs[u]: distinct neighbours of u, ascending; mirrored
	mults [][]int64 // mults[u][i] = multiplicity of edge {u, nbrs[u][i]}
	edges int64     // sum of multiplicities over unordered pairs
}

// New returns an empty multigraph on n vertices.
func New(n int) *Multigraph {
	if n < 0 {
		panic(fmt.Sprintf("multigraph: negative vertex count %d", n))
	}
	return &Multigraph{n: n, nbrs: make([][]int, n), mults: make([][]int64, n)}
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
	for _, vs := range g.nbrs {
		c += len(vs)
	}
	return c / 2
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
	g.adjust(u, v, mult)
	g.adjust(v, u, mult)
	g.edges += mult
}

// adjust adds delta to the multiplicity u's adjacency holds for v: it
// inserts v in order when it is new and deletes it when the multiplicity
// reaches zero.
func (g *Multigraph) adjust(u, v int, delta int64) {
	i, ok := slices.BinarySearch(g.nbrs[u], v)
	switch {
	case !ok:
		g.nbrs[u] = slices.Insert(g.nbrs[u], i, v)
		g.mults[u] = slices.Insert(g.mults[u], i, delta)
	case g.mults[u][i]+delta == 0:
		g.nbrs[u] = slices.Delete(g.nbrs[u], i, i+1)
		g.mults[u] = slices.Delete(g.mults[u], i, i+1)
	default:
		g.mults[u][i] += delta
	}
}

// AddSimpleEdge adds a single edge between u and v.
func (g *Multigraph) AddSimpleEdge(u, v int) { g.AddEdge(u, v, 1) }

// RemoveEdge removes mult parallel edges between u and v, or all of them if
// mult exceeds the current multiplicity. It reports how many were removed.
func (g *Multigraph) RemoveEdge(u, v int, mult int64) int64 {
	cur := g.Multiplicity(u, v)
	if cur == 0 || mult <= 0 {
		return 0
	}
	mult = min(mult, cur)
	g.adjust(u, v, -mult)
	g.adjust(v, u, -mult)
	g.edges -= mult
	return mult
}

// Multiplicity returns the multiplicity of edge {u,v} (0 if absent).
func (g *Multigraph) Multiplicity(u, v int) int64 {
	g.check(u)
	g.check(v)
	if i, ok := slices.BinarySearch(g.nbrs[u], v); ok {
		return g.mults[u][i]
	}
	return 0
}

// HasEdge reports whether at least one edge joins u and v.
func (g *Multigraph) HasEdge(u, v int) bool { return g.Multiplicity(u, v) > 0 }

// Neighbors returns the distinct neighbours of u in ascending order. The
// slice is a read-only view of g's own storage: callers must not write
// through it, and it is valid only until the next AddEdge or RemoveEdge
// that touches u.
func (g *Multigraph) Neighbors(u int) []int {
	g.check(u)
	return g.nbrs[u]
}

// Degree returns the degree of u counting multiplicities.
func (g *Multigraph) Degree(u int) int64 {
	g.check(u)
	var d int64
	for _, m := range g.mults[u] {
		d += m
	}
	return d
}

// Clone returns a deep copy of g.
func (g *Multigraph) Clone() *Multigraph {
	h := New(g.n)
	h.edges = g.edges
	for u := range g.nbrs {
		h.nbrs[u] = slices.Clone(g.nbrs[u])
		h.mults[u] = slices.Clone(g.mults[u])
	}
	return h
}

// Induced returns the subgraph of g induced by part, which must ascend:
// vertex i of the result is part[i], and every edge of g with both ends
// in part keeps its multiplicity. pos is scratch of length g.N(), all zero
// on entry and again on return: Induced marks each member's position in it
// for the neighbour lookups, so callers that split a graph many times
// reuse one table. The result's lists are windows of two flat arrays sized
// by the members' degrees in g.
func (g *Multigraph) Induced(part []int, pos []int32) *Multigraph {
	h := &Multigraph{n: len(part), nbrs: make([][]int, len(part)), mults: make([][]int64, len(part))}
	total := 0
	for i, v := range part {
		g.check(v)
		if i > 0 && part[i-1] >= v {
			panic(fmt.Sprintf("multigraph: induced part not ascending at %d", i))
		}
		total += len(g.nbrs[v])
	}
	for i, v := range part {
		pos[v] = int32(i + 1)
	}
	nbrs := make([]int, 0, total)
	mults := make([]int64, 0, total)
	for i, v := range part {
		lo := len(nbrs)
		ms := g.mults[v]
		for k, u := range g.nbrs[v] {
			if j := int(pos[u]) - 1; j >= 0 {
				nbrs = append(nbrs, j)
				mults = append(mults, ms[k])
				if j > i {
					h.edges += ms[k]
				}
			}
		}
		// Capped windows, so a later AddEdge on h reallocates rather than
		// writing into the next vertex's list.
		h.nbrs[i] = nbrs[lo:len(nbrs):len(nbrs)]
		h.mults[i] = mults[lo:len(mults):len(mults)]
	}
	for _, v := range part {
		pos[v] = 0
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
	for u, vs := range g.nbrs {
		for i, v := range vs {
			if v > u {
				out = append(out, Edge{U: u, V: v, Mult: g.mults[u][i]})
			}
		}
	}
	return out
}

// String returns a short human-readable summary.
func (g *Multigraph) String() string {
	return fmt.Sprintf("multigraph{n=%d, E=%d, pairs=%d}", g.n, g.edges, g.DistinctEdges())
}
