package topology

import (
	"fmt"
	"math/rand"

	"repro/internal/multigraph"
)

// expanderDegree is the degree of every Expander vertex.
const expanderDegree = 4

// Expander returns a random degree-4 multigraph on n vertices built as
// the union of two random cyclic permutations. Such graphs are expanders
// with high probability; the constructor retries the seed-derived stream
// until the result is connected.
func Expander(n int, rng *rand.Rand) *Machine {
	if n < 4 {
		panic(fmt.Sprintf("topology: Expander size %d < 4", n))
	}
	var g *multigraph.Multigraph
	for attempt := 0; ; attempt++ {
		if attempt > 100 {
			panic("topology: Expander could not build a connected graph in 100 attempts")
		}
		g = multigraph.New(n)
		for h := 0; h < expanderDegree/2; h++ {
			perm := rng.Perm(n)
			for i := 0; i < n; i++ {
				u, v := perm[i], perm[(i+1)%n]
				// A cyclic permutation never produces self-loops for n >= 2;
				// parallel edges across permutations are kept (multigraph).
				g.AddSimpleEdge(u, v)
			}
		}
		if g.Connected() {
			break
		}
	}
	m := &Machine{
		Family: ExpanderFamily, Name: fmt.Sprintf("Expander[%d,d=%d]", n, expanderDegree),
		Graph: g, Procs: n,
	}
	return m.validate()
}

// splitter is how many random targets a Multibutterfly vertex draws in
// each half of its block at the next level.
const splitter = 2

// Multibutterfly returns an order-d multibutterfly: the level structure of
// the butterfly, but each vertex at level l connects to `splitter` random
// targets in the upper half and `splitter` in the lower half of its
// 2^(d-l)-row block at level l+1. Random splitters make the network an
// expander between consecutive levels, which is what gives multibutterflies
// their fault tolerance; bandwidth matches the butterfly at Θ(n / lg n).
func Multibutterfly(order int, rng *rand.Rand) *Machine {
	checkOrder("Multibutterfly", order, 22)
	rows := 1 << order
	n := (order + 1) * rows
	id := func(level, row int) int { return level*rows + row }
	for {
		g := multigraph.New(n)
		for l := 0; l < order; l++ {
			blockSize := rows >> l // rows per block at level l
			half := blockSize / 2
			for r := 0; r < rows; r++ {
				blockStart := r &^ (blockSize - 1)
				// The two sub-blocks this vertex can reach at level l+1.
				for _, sub := range []int{0, 1} {
					base := blockStart + sub*half
					for s := 0; s < splitter; s++ {
						t := base + rng.Intn(half)
						if !g.HasEdge(id(l, r), id(l+1, t)) {
							g.AddSimpleEdge(id(l, r), id(l+1, t))
						}
					}
				}
			}
		}
		if g.Connected() {
			m := &Machine{
				Family: MultibutterflyFamily, Name: fmt.Sprintf("Multibutterfly[%d]", n),
				Graph: g, Procs: n, Side: order,
			}
			return m.validate()
		}
	}
}
