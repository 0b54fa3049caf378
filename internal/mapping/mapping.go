// Package mapping solves instances of the mapping problem the paper cites
// (Berman & Snyder): assigning guest processors to host processors so that
// communicating guests land near each other. The emulation experiments use
// it as the locality-preserving contraction for machine pairs that have no
// coordinate structure to exploit.
//
// The algorithm is classic recursive coordinated bisection: split the
// guest with a small balanced cut, split the host likewise, map the halves
// to each other, and recurse until the host side is a single processor.
// Guest and host cuts both use multigraph's local search
// (Multigraph.RefinePartition), the refiner behind its bisection
// estimate.
package mapping

import (
	"fmt"
	"math/rand"

	"repro/internal/multigraph"
	"repro/internal/topology"
)

// restarts is the number of local-search restarts per bisection call.
const restarts = 3

// RecursiveBisection maps guest processors onto host processors by
// coordinated recursive bisection and returns the assignment (guest
// processor -> host processor). Both machines must be pure processor
// machines on their graphs' vertex sets; the guest must be at least as
// large as the host.
func RecursiveBisection(guest, host *topology.Machine, rng *rand.Rand) []int {
	if guest.N() != guest.Graph.N() {
		panic(fmt.Sprintf("mapping: guest %s has switch vertices", guest.Name))
	}
	if host.N() < 1 {
		panic("mapping: empty host")
	}
	assign := make([]int, guest.N())
	guestAll := make([]int, guest.N())
	for i := range guestAll {
		guestAll[i] = i
	}
	hostAll := make([]int, host.N())
	for i := range hostAll {
		hostAll[i] = i
	}
	// One position table serves every Induced call, guest and host alike.
	pos := make([]int32, max(guest.Graph.N(), host.Graph.N()))
	recurse(guest.Graph, host.Graph, guestAll, hostAll, assign, pos, rng)
	return assign
}

// recurse maps the guest vertices in gPart onto the host vertices in hPart.
// Every part is ascending, since splitPart keeps its input's order.
func recurse(g, h *multigraph.Multigraph, gPart, hPart []int, assign []int, pos []int32, rng *rand.Rand) {
	if len(hPart) == 1 {
		for _, v := range gPart {
			assign[v] = hPart[0]
		}
		return
	}
	if len(gPart) == 0 {
		return
	}
	// Split the host into two halves with a small cut, then split the
	// guest proportionally, and pair the sides so that (heuristically)
	// the bigger guest half gets the bigger host half.
	hA, hB := splitPart(h, hPart, len(hPart)/2, pos, rng)
	wantA := len(gPart) * len(hA) / len(hPart)
	gA, gB := splitPart(g, gPart, wantA, pos, rng)
	recurse(g, h, gA, hA, assign, pos, rng)
	recurse(g, h, gB, hB, assign, pos, rng)
}

// splitPart partitions the ascending `part` into ascending halves of sizes
// (k, len-k) minimizing the induced cut with a random-restart local search
// over the induced subgraph. pos is Induced's zeroed position table.
func splitPart(g *multigraph.Multigraph, part []int, k int, pos []int32, rng *rand.Rand) ([]int, []int) {
	n := len(part)
	if k <= 0 {
		return nil, append([]int(nil), part...)
	}
	if k >= n {
		return append([]int(nil), part...), nil
	}
	sub := g.Induced(part, pos)
	bestSide := make([]bool, n)
	bestCut := int64(-1)
	side := make([]bool, n)
	for r := 0; r < restarts; r++ {
		// Random size-k seed refined by greedy swaps.
		perm := rng.Perm(n)
		for i := range side {
			side[i] = false
		}
		for i := 0; i < k; i++ {
			side[perm[i]] = true
		}
		cut := sub.RefinePartition(side, 2*n)
		if bestCut < 0 || cut < bestCut {
			bestCut = cut
			copy(bestSide, side)
		}
	}
	var a, b []int
	for i, v := range part {
		if bestSide[i] {
			a = append(a, v)
		} else {
			b = append(b, v)
		}
	}
	return a, b
}
