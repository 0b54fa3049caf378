// Package embed implements embeddings of multigraphs (traffic patterns or
// guest networks) into host graphs, and the congestion and dilation
// measures the paper's graph-theoretic bandwidth definition is built on:
//
//	β(H, T) = E(T) / C(H, T)
//
// where C(H, T) is the minimum congestion of a 1-to-1 embedding of the
// traffic multigraph T into H, in the limit of growing edge multiplicities.
// The limit lets paths split fractionally, so the estimator here spreads
// each traffic edge across many random shortest paths (FractionalLoad) and
// refines whole-path embeddings by congestion-aware rerouting (Improve).
package embed

import (
	"fmt"
	"math/rand"

	"repro/internal/multigraph"
)

// edgeKey identifies an undirected host edge by its ordered endpoints.
type edgeKey struct{ u, v int }

func keyOf(a, b int) edgeKey {
	if a > b {
		a, b = b, a
	}
	return edgeKey{u: a, v: b}
}

// Embedding is a concrete embedding of Guest into Host: a vertex map plus
// one routing path per distinct guest edge. A guest edge of multiplicity m
// contributes m units of load to every host edge its path crosses.
type Embedding struct {
	Host      *multigraph.Multigraph
	Guest     *multigraph.Multigraph
	VertexMap []int // guest vertex -> host vertex
	Paths     []Path
}

// Path routes one distinct guest edge through the host.
type Path struct {
	GuestEdge multigraph.Edge
	Vertices  []int // host vertices, from map(U) to map(V) inclusive
}

// IdentityMap returns the identity vertex map for n vertices.
func IdentityMap(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

func checkMap(host, guest *multigraph.Multigraph, vertexMap []int) {
	if len(vertexMap) != guest.N() {
		panic(fmt.Sprintf("embed: vertex map has %d entries for guest of %d", len(vertexMap), guest.N()))
	}
	for gv, hv := range vertexMap {
		if hv < 0 || hv >= host.N() {
			panic(fmt.Sprintf("embed: guest vertex %d maps to invalid host vertex %d", gv, hv))
		}
	}
}

// ShortestPaths embeds guest into host along deterministic shortest paths
// under the given vertex map (1-to-1 or many-to-1). Guest edges whose
// endpoints map to the same host vertex get a trivial single-vertex path
// (they cost nothing on host wires).
func ShortestPaths(host, guest *multigraph.Multigraph, vertexMap []int) *Embedding {
	checkMap(host, guest, vertexMap)
	e := &Embedding{Host: host, Guest: guest, VertexMap: vertexMap}
	for _, ge := range guest.Edges() {
		hu, hv := vertexMap[ge.U], vertexMap[ge.V]
		var p []int
		if hu == hv {
			p = []int{hu}
		} else {
			p = host.ShortestPath(hu, hv)
			if p == nil {
				panic(fmt.Sprintf("embed: host vertices %d and %d disconnected", hu, hv))
			}
		}
		e.Paths = append(e.Paths, Path{GuestEdge: ge, Vertices: p})
	}
	return e
}

// RandomShortestPaths embeds guest into host along random shortest paths,
// spreading load across tie-breaking choices.
func RandomShortestPaths(host, guest *multigraph.Multigraph, vertexMap []int, rng *rand.Rand) *Embedding {
	checkMap(host, guest, vertexMap)
	e := &Embedding{Host: host, Guest: guest, VertexMap: vertexMap}
	for _, ge := range guest.Edges() {
		hu, hv := vertexMap[ge.U], vertexMap[ge.V]
		var p []int
		if hu == hv {
			p = []int{hu}
		} else {
			p = host.RandomShortestPath(hu, hv, rng)
			if p == nil {
				panic(fmt.Sprintf("embed: host vertices %d and %d disconnected", hu, hv))
			}
		}
		e.Paths = append(e.Paths, Path{GuestEdge: ge, Vertices: p})
	}
	return e
}

// edgeLoads returns per-host-edge load: the sum over paths crossing the
// edge of the guest edge multiplicity. Host edge capacity (multiplicity)
// is accounted for separately by callers.
func (e *Embedding) edgeLoads() map[edgeKey]int64 {
	loads := make(map[edgeKey]int64)
	for _, p := range e.Paths {
		for i := 0; i+1 < len(p.Vertices); i++ {
			loads[keyOf(p.Vertices[i], p.Vertices[i+1])] += p.GuestEdge.Mult
		}
	}
	return loads
}

// Congestion returns the maximum per-wire load: for each distinct host
// edge, the crossing load divided by the edge multiplicity (parallel host
// wires share load), rounded up. This is the paper's congestion c.
func (e *Embedding) Congestion() int64 {
	var worst int64
	for k, load := range e.edgeLoads() {
		mult := e.Host.Multiplicity(k.u, k.v)
		if mult == 0 {
			panic(fmt.Sprintf("embed: path crosses non-edge (%d,%d)", k.u, k.v))
		}
		per := (load + mult - 1) / mult
		if per > worst {
			worst = per
		}
	}
	return worst
}
