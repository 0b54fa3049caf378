package multigraph

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
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
	g.checkSide(side)
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

func (g *Multigraph) checkSide(side []bool) {
	if len(side) != g.n {
		panic(fmt.Sprintf("multigraph: partition length %d != n %d", len(side), g.n))
	}
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
// highest-gain vertices of either part (ties to the smaller id), stops when
// no such pair lowers the cut, and returns the final cut weight. Each part
// keeps its vertices in gain buckets, so a swap reads its candidates off the
// top occupied levels and updates only the swapped pair and their
// neighbours: O(degree) rather than a scan of all n vertices.
func (g *Multigraph) RefinePartition(side []bool, maxSwaps int) int64 {
	if maxSwaps <= 0 {
		return g.CutWeight(side)
	}
	g.checkSide(side)
	r := refiners.Get().(*refiner)
	defer refiners.Put(r)
	// gain[u]: reduction in cut weight if u switches sides.
	gain := slices.Grow(r.gain[:0], g.n)[:g.n]
	r.gain = gain
	bk := &r.bk // indexed by side: 0 = B, 1 = A
	bk[0].reset(g.n)
	bk[1].reset(g.n)
	var cut int64
	for u := range gain {
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
		bk[b2i(side[u])].add(u, gain[u])
		if side[u] {
			cut += ext
		}
	}
	const k = 6 // candidates per side
	var bufA, bufB [k]int
	for iter := 0; iter < maxSwaps; iter++ {
		candA := bk[1].top(bufA[:0])
		candB := bk[0].top(bufB[:0])
		bestU, bestV := -1, -1
		var bestDelta int64
		for _, u := range candA {
			for _, v := range candB {
				// Multiplicities are non-negative and candB descends in
				// gain, so no later v can beat bestDelta either.
				if gain[u]+gain[v] <= bestDelta {
					break
				}
				delta := gain[u] + gain[v] - 2*g.Multiplicity(u, v)
				if delta > bestDelta {
					bestDelta, bestU, bestV = delta, u, v
				}
			}
		}
		if bestU < 0 {
			break
		}
		cut -= bestDelta
		bk[1].remove(bestU, gain[bestU])
		bk[0].remove(bestV, gain[bestV])
		g.flip(bestU, bestV, side, gain, bk)
		g.flip(bestV, bestU, side, gain, bk)
		bk[0].add(bestU, gain[bestU])
		bk[1].add(bestV, gain[bestV])
	}
	return cut
}

// refiner is RefinePartition's working memory, pooled so the many small
// refinements of a recursive bisection reuse one set of arrays.
type refiner struct {
	gain []int64
	bk   [2]gainBuckets
}

var refiners = sync.Pool{New: func() any { return new(refiner) }}

// flip moves u to the other part and updates the gains and buckets of its
// neighbours; other, the swap partner, is out of the buckets and only has
// its gain updated.
func (g *Multigraph) flip(u, other int, side []bool, gain []int64, bk *[2]gainBuckets) {
	for i, w := range g.nbrs[u] {
		// The edge {u, w} turns from internal to cut, or back.
		d := 2 * g.mults[u][i]
		if side[w] != side[u] {
			d = -d
		}
		if w != other {
			b := &bk[b2i(side[w])]
			b.remove(w, gain[w])
			b.add(w, gain[w]+d)
		}
		gain[w] += d
	}
	gain[u] = -gain[u]
	side[u] = !side[u]
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// gainBuckets holds one part's vertices by gain: for each occupied gain
// level, ascending, a bitset of the vertices at that level. Memory follows
// the levels occupied, not the gain range, which a hub of degree n makes
// 2n+1 wide: an emptied level returns its bitset for the next new level.
type gainBuckets struct {
	words  int         // bitset length: ceil(n/64)
	levels []gainLevel // occupied levels, ascending by gain
	bits   []uint64    // bitset slots, words each
	free   []int32     // emptied slots, all zero
}

type gainLevel struct {
	gain  int64
	count int32 // vertices at this level
	slot  int32 // bitset: bits[slot*words:][:words]
}

// reset empties b for vertices 0..n-1, keeping its arrays.
func (b *gainBuckets) reset(n int) {
	b.words = (n + 63) / 64
	b.levels, b.bits, b.free = b.levels[:0], b.bits[:0], b.free[:0]
}

// find returns the index of gain's level, or where it would be inserted.
func (b *gainBuckets) find(gain int64) (int, bool) {
	lo, hi := 0, len(b.levels)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b.levels[m].gain < gain {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(b.levels) && b.levels[lo].gain == gain
}

func (b *gainBuckets) add(u int, gain int64) {
	i, ok := b.find(gain)
	if !ok {
		var slot int32
		if n := len(b.free); n > 0 {
			slot = b.free[n-1]
			b.free = b.free[:n-1]
		} else {
			slot = int32(len(b.bits) / b.words)
			b.bits = append(b.bits, make([]uint64, b.words)...)
		}
		b.levels = slices.Insert(b.levels, i, gainLevel{gain: gain, slot: slot})
	}
	lv := &b.levels[i]
	lv.count++
	b.bits[int(lv.slot)*b.words+u>>6] |= 1 << (u & 63)
}

func (b *gainBuckets) remove(u int, gain int64) {
	i, _ := b.find(gain)
	lv := &b.levels[i]
	b.bits[int(lv.slot)*b.words+u>>6] &^= 1 << (u & 63)
	if lv.count--; lv.count == 0 {
		b.free = append(b.free, lv.slot)
		b.levels = slices.Delete(b.levels, i, i+1)
	}
}

// top fills out (length 0) with up to cap(out) vertices in descending gain
// order, ties by ascending id: the highest levels first, each read off its
// bitset in ascending order.
func (b *gainBuckets) top(out []int) []int {
	for i := len(b.levels) - 1; i >= 0; i-- {
		set := b.bits[int(b.levels[i].slot)*b.words:][:b.words]
		for w, word := range set {
			for ; word != 0; word &= word - 1 {
				out = append(out, w<<6+bits.TrailingZeros64(word))
				if len(out) == cap(out) {
					return out
				}
			}
		}
	}
	return out
}
