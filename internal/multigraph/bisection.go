package multigraph

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Bisection width is the minimum number of simple edges (counting
// multiplicities) crossing a balanced partition of the vertices into parts
// of size floor(n/2) and ceil(n/2). It upper-bounds the bandwidth of a
// network under symmetric traffic — roughly half of all messages must cross
// any balanced cut — and the paper's Table 4 β values for the tree-like
// machines are bisection-limited.

// ExactBisection computes the bisection width by enumerating all balanced
// partitions. Cost is C(n, n/2) cut evaluations; it panics for n > 24 —
// use EstimateBisection instead.
func (g *Multigraph) ExactBisection() int64 {
	n := g.n
	if n > 24 {
		panic(fmt.Sprintf("multigraph: ExactBisection infeasible for n=%d (max 24)", n))
	}
	if n < 2 {
		return 0
	}
	half := n / 2
	side := make([]bool, n)
	best := int64(math.MaxInt64)
	// Fix vertex 0 on side A to halve the search space.
	var rec func(v, taken int)
	rec = func(v, taken int) {
		if taken == half {
			if c := g.CutWeight(side); c < best {
				best = c
			}
			return
		}
		if v >= n || n-v < half-taken {
			return
		}
		side[v] = true
		rec(v+1, taken+1)
		side[v] = false
		rec(v+1, taken)
	}
	if half == 0 {
		return 0
	}
	side[0] = true
	rec(1, 1)
	return best
}

// CutWeight returns the total multiplicity of edges with endpoints on
// opposite sides of the partition described by side (true = part A).
func (g *Multigraph) CutWeight(side []bool) int64 {
	if len(side) != g.n {
		panic(fmt.Sprintf("multigraph: partition length %d != n %d", len(side), g.n))
	}
	var cut int64
	for u := 0; u < g.n; u++ {
		if !side[u] {
			continue
		}
		for i, v := range g.nbrs[u] {
			if !side[v] {
				cut += g.mults[u][i]
			}
		}
	}
	return cut
}

// EstimateBisection upper-bounds the bisection width with a randomized
// Kernighan–Lin-style local search: `restarts` random balanced partitions,
// each refined by RefinePartition (at most 4n swaps). For n <= 20 it
// returns the exact value.
func (g *Multigraph) EstimateBisection(restarts int, rng *rand.Rand) int64 {
	if g.n <= 20 {
		return g.ExactBisection()
	}
	if restarts < 1 {
		restarts = 1
	}
	best := int64(math.MaxInt64)
	for r := 0; r < restarts; r++ {
		side := g.randomBalancedPartition(rng)
		cut := g.RefinePartition(side, 4*g.n)
		if cut < best {
			best = cut
		}
	}
	// A BFS-layered "sweep" partition often matches the structure of the
	// paper's machines (meshes, trees) better than random restarts.
	if g.n > 0 {
		for _, src := range []int{0, g.n - 1, g.n / 2} {
			side := g.sweepPartition(src)
			cut := g.RefinePartition(side, 4*g.n)
			if cut < best {
				best = cut
			}
		}
	}
	return best
}

func (g *Multigraph) randomBalancedPartition(rng *rand.Rand) []bool {
	perm := rng.Perm(g.n)
	side := make([]bool, g.n)
	for i := 0; i < g.n/2; i++ {
		side[perm[i]] = true
	}
	return side
}

// sweepPartition puts the floor(n/2) vertices closest to src (BFS order) on
// side A; ties go to the smaller id, unreachable vertices come last.
func (g *Multigraph) sweepPartition(src int) []bool {
	dist := g.BFS(src)
	for v, d := range dist {
		if d == unreachable {
			dist[v] = math.MaxInt
		}
	}
	order := make([]int, g.n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(dist[a], dist[b]) })
	side := make([]bool, g.n)
	for i := 0; i < g.n/2; i++ {
		side[order[i]] = true
	}
	return side
}

// RefinePartition improves the partition side (true = part A) in place by
// greedy balanced swaps, one vertex from each part, so the part sizes never
// change. It makes at most maxSwaps swaps, each the best pair among the six
// highest-gain vertices of either part, stops when no such pair lowers the
// cut, and returns the final cut weight. Choosing among top candidates
// keeps a swap O(n) rather than O(n²).
func (g *Multigraph) RefinePartition(side []bool, maxSwaps int) int64 {
	// gain[u]: reduction in cut weight if u switches sides.
	gain := make([]int64, g.n)
	recompute := func(u int) {
		var ext, in int64
		ms := g.mults[u]
		for i, v := range g.nbrs[u] {
			if side[v] != side[u] {
				ext += ms[i]
			} else {
				in += ms[i]
			}
		}
		gain[u] = ext - in
	}
	for u := range gain {
		recompute(u)
	}
	cut := g.CutWeight(side)
	const k = 6 // candidates per side
	var bufA, bufB [k]int
	for iter := 0; iter < maxSwaps; iter++ {
		candA := g.topGain(side, true, gain, bufA[:0])
		candB := g.topGain(side, false, gain, bufB[:0])
		bestU, bestV := -1, -1
		var bestDelta int64
		for _, u := range candA {
			for _, v := range candB {
				delta := gain[u] + gain[v] - 2*g.Multiplicity(u, v)
				if delta > bestDelta {
					bestDelta, bestU, bestV = delta, u, v
				}
			}
		}
		if bestU < 0 {
			break
		}
		side[bestU], side[bestV] = false, true
		cut -= bestDelta
		// Only the swapped pair and their neighbours change gain.
		recompute(bestU)
		recompute(bestV)
		for _, v := range g.nbrs[bestU] {
			recompute(v)
		}
		for _, v := range g.nbrs[bestV] {
			recompute(v)
		}
	}
	return cut
}

// topGain fills out (length 0, capacity k) with up to k vertices on the
// given side with the largest gain, in descending gain order, ties by
// ascending id.
func (g *Multigraph) topGain(side []bool, want bool, gain []int64, out []int) []int {
	k := cap(out)
	for u := 0; u < g.n; u++ {
		if side[u] != want {
			continue
		}
		// Insertion into the small sorted candidate list.
		pos := len(out)
		for pos > 0 && gain[out[pos-1]] < gain[u] {
			pos--
		}
		if pos < k {
			if len(out) < k {
				out = append(out, 0)
			}
			copy(out[pos+1:], out[pos:len(out)-1])
			out[pos] = u
		}
	}
	return out
}
