package circuit

import (
	"fmt"
	"math/rand"

	"repro/internal/multigraph"
)

// This file implements the Lemma 11 mechanics: emulating a circuit Φ on a
// host of m processors collapses Φ's nodes into m super-vertices with load
// O(|Φ|/m); arcs between different super-vertices become the communication
// multigraph M the host must route. Lemma 11 shows the witness bandwidth
// survives the collapse: enough γ-paths run between different
// super-vertices.

// Assignment maps circuit-node indices (CommunicationGraph indexing) to
// host processors.
type Assignment []int

// BalancedRandomAssignment spreads `total` circuit nodes over hostSize
// processors in random balanced fashion (loads differ by at most one).
func BalancedRandomAssignment(total, hostSize int, rng *rand.Rand) Assignment {
	if hostSize < 1 || total < 1 {
		panic(fmt.Sprintf("circuit: bad assignment dims %d/%d", total, hostSize))
	}
	a := make(Assignment, total)
	perm := rng.Perm(total)
	for i, node := range perm {
		a[node] = i % hostSize
	}
	return a
}

// CollapseTraffic maps a traffic graph on circuit nodes (e.g. the γ
// witness) through the assignment, keeping only pairs that land on
// different processors — Lemma 11's ξ. The returned graph lives on
// hostSize vertices.
func CollapseTraffic(t *multigraph.Multigraph, a Assignment, hostSize int) *multigraph.Multigraph {
	if t.N() != len(a) {
		panic(fmt.Sprintf("circuit: traffic on %d nodes, assignment for %d", t.N(), len(a)))
	}
	out := multigraph.New(hostSize)
	for _, e := range t.Edges() {
		pu, pv := a[e.U], a[e.V]
		if pu != pv {
			out.AddEdge(pu, pv, e.Mult)
		}
	}
	return out
}
