package multigraph

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// refineByScan is RefinePartition as a plain scan: every swap ranks all n
// vertices for each part's six best gains, tries all 36 pairs and
// recomputes the gains it touched from scratch. It is the reference the
// bucketed refiner must match swap for swap.
func refineByScan(g *Multigraph, side []bool, maxSwaps int) int64 {
	gain := make([]int64, g.n)
	recompute := func(u int) {
		var ext, in int64
		for i, v := range g.nbrs[u] {
			if side[v] != side[u] {
				ext += g.mults[u][i]
			} else {
				in += g.mults[u][i]
			}
		}
		gain[u] = ext - in
	}
	for u := range gain {
		recompute(u)
	}
	// scanTop returns up to k vertices of one part, gain descending, ties
	// by ascending id.
	scanTop := func(want bool) []int {
		const k = 6
		var out []int
		for u := 0; u < g.n; u++ {
			if side[u] != want {
				continue
			}
			pos := len(out)
			for pos > 0 && gain[out[pos-1]] < gain[u] {
				pos--
			}
			if pos < k {
				out = slices.Insert(out, pos, u)
				if len(out) > k {
					out = out[:k]
				}
			}
		}
		return out
	}
	cut := g.CutWeight(side)
	for iter := 0; iter < maxSwaps; iter++ {
		bestU, bestV := -1, -1
		var bestDelta int64
		candA, candB := scanTop(true), scanTop(false)
		for _, u := range candA {
			for _, v := range candB {
				if delta := gain[u] + gain[v] - 2*g.Multiplicity(u, v); delta > bestDelta {
					bestDelta, bestU, bestV = delta, u, v
				}
			}
		}
		if bestU < 0 {
			break
		}
		side[bestU], side[bestV] = false, true
		cut -= bestDelta
		recompute(bestU)
		recompute(bestV)
		for _, w := range g.nbrs[bestU] {
			recompute(w)
		}
		for _, w := range g.nbrs[bestV] {
			recompute(w)
		}
	}
	return cut
}

// The bucketed refiner makes the scan's swaps exactly: the same cut and
// the same final partition on random multigraphs with multiplicities above
// 1 and hub vertices (whose gains span up to twice their degree), from
// random, often unbalanced, partitions under random swap caps.
func TestPropertyRefineMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(90)
		g := New(n)
		for i := rng.Intn(4 * n); i > 0; i-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				g.AddEdge(u, v, int64(1+rng.Intn(4)))
			}
		}
		for hubs := rng.Intn(3); hubs > 0; hubs-- {
			h := rng.Intn(n)
			for v := 0; v < n; v++ {
				if v != h && rng.Intn(4) != 0 {
					g.AddEdge(h, v, int64(1+rng.Intn(3)))
				}
			}
		}
		side := make([]bool, n)
		for v := range side {
			side[v] = rng.Intn(3) != 0
		}
		want := slices.Clone(side)
		maxSwaps := rng.Intn(2*n + 2)
		wantCut := refineByScan(g, want, maxSwaps)
		cut := g.RefinePartition(side, maxSwaps)
		if cut != wantCut || !slices.Equal(side, want) {
			t.Logf("seed %d (n=%d, cap %d): cut %d, side %v; scan gives %d, %v", seed, n, maxSwaps, cut, side, wantCut, want)
			return false
		}
		return cut == g.CutWeight(side)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// sideString renders a partition as one letter per vertex, A for true.
func sideString(side []bool) string {
	b := make([]byte, len(side))
	for i, s := range side {
		b[i] = 'B'
		if s {
			b[i] = 'A'
		}
	}
	return string(b)
}

// Pin what each swap cap allows: the cut and the partition after at most
// maxSwaps swaps. On the alternating 16-ring every swap lowers the cut by
// 4 until two arcs remain; on the seeded 6×6 grid every cap up to 5 binds.
func TestRefinePartitionSwapCap(t *testing.T) {
	ring := func() (*Multigraph, []bool) {
		side := make([]bool, 16)
		for i := range side {
			side[i] = i%2 == 0
		}
		return cycle(16), side
	}
	seededGrid := func() (*Multigraph, []bool) {
		side := make([]bool, 36)
		for _, v := range rand.New(rand.NewSource(1)).Perm(36)[:18] {
			side[v] = true
		}
		return grid(6, 6), side
	}
	tests := []struct {
		name     string
		build    func() (*Multigraph, []bool)
		maxSwaps int
		cut      int64
		side     string
	}{
		{"ring", ring, 0, 16, "ABABABABABABABAB"},
		{"ring", ring, 1, 12, "BBAAABABABABABAB"},
		{"ring", ring, 2, 8, "BBAAABBBAAABABAB"},
		{"ring", ring, 3, 4, "BBAAABBBAAAAABBB"},
		{"ring", ring, 4, 4, "BBAAABBBAAAAABBB"},
		{"grid", seededGrid, 0, 31, "BBABAAABBAABBAABBBAAAABABAABBABBABBA"},
		{"grid", seededGrid, 1, 25, "BBBBAAABBAABAAABBBAAAABABAABBABBABBA"},
		{"grid", seededGrid, 2, 22, "BBBBAAABBBAAAAABBBAAAABABAABBABBABBA"},
		{"grid", seededGrid, 3, 19, "BBBBAAABBBAAAAABBAAAABBABAABBABBABBA"},
		{"grid", seededGrid, 4, 17, "BBBBAABBBBAAAAABBAAAABBAAAABBABBABBA"},
		{"grid", seededGrid, 5, 16, "BBBBAABBBBAAAAABAAAAABBAAAABBABBBBBA"},
	}
	for _, tc := range tests {
		g, side := tc.build()
		cut := g.RefinePartition(side, tc.maxSwaps)
		if got := sideString(side); cut != tc.cut || got != tc.side {
			t.Errorf("%s, cap %d: cut %d, side %s; want %d, %s", tc.name, tc.maxSwaps, cut, got, tc.cut, tc.side)
		}
	}
}

// Refiners running at once share only the graph and the scratch pool, so
// each must give what it gives alone (run under -race).
func TestRefinePartitionConcurrent(t *testing.T) {
	g := grid(12, 12)
	starts := make([][]bool, 16)
	wantSide := make([][]bool, len(starts))
	wantCut := make([]int64, len(starts))
	for i := range starts {
		starts[i] = make([]bool, g.N())
		for _, v := range rand.New(rand.NewSource(int64(i))).Perm(g.N())[:g.N()/2] {
			starts[i][v] = true
		}
		wantSide[i] = slices.Clone(starts[i])
		wantCut[i] = g.RefinePartition(wantSide[i], 4*g.N())
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, start := range starts {
				side := slices.Clone(start)
				if cut := g.RefinePartition(side, 4*g.N()); cut != wantCut[i] || !slices.Equal(side, wantSide[i]) {
					t.Errorf("start %d: concurrent cut %d, alone %d (sides equal: %v)", i, cut, wantCut[i], slices.Equal(side, wantSide[i]))
				}
			}
		}()
	}
	wg.Wait()
}
