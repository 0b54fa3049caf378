package multigraph

import (
	"fmt"
	"math/rand"
	"slices"
)

// unreachable marks a vertex not reachable from the BFS source.
const unreachable = -1

// BFS returns the unweighted distance from src to every vertex; unreachable
// vertices get -1. Multiplicities do not affect distances.
func (g *Multigraph) BFS(src int) []int {
	g.check(src)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = unreachable
	}
	dist[src] = 0
	queue := make([]int, 0, g.n)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.nbrs[u] {
			if dist[v] == unreachable {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// ShortestPath returns one shortest path from src to dst as a vertex
// sequence including both endpoints, or nil if dst is unreachable.
// Ties are broken toward lower-numbered vertices, so the result is
// deterministic.
func (g *Multigraph) ShortestPath(src, dst int) []int {
	g.check(src)
	g.check(dst)
	if src == dst {
		return []int{src}
	}
	parent := make([]int, g.n)
	for i := range parent {
		parent[i] = unreachable
	}
	parent[src] = src
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == dst {
			break
		}
		for _, v := range g.nbrs[u] { // ascending: deterministic ties
			if parent[v] == unreachable {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	if parent[dst] == unreachable {
		return nil
	}
	var rev []int
	for v := dst; v != src; v = parent[v] {
		rev = append(rev, v)
	}
	rev = append(rev, src)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// RandomShortestPath returns a shortest path from src to dst where ties are
// broken uniformly at random using rng, or nil if dst is unreachable. The
// randomized embedding machinery uses this to spread congestion.
func (g *Multigraph) RandomShortestPath(src, dst int, rng *rand.Rand) []int {
	g.check(src)
	g.check(dst)
	if src == dst {
		return []int{src}
	}
	// Distances from dst, then walk downhill from src choosing uniformly
	// among neighbours one step closer to dst.
	dist := g.BFS(dst)
	if dist[src] == unreachable {
		return nil
	}
	path := make([]int, 0, dist[src]+1)
	u := src
	path = append(path, u)
	var choices []int
	for u != dst {
		choices = choices[:0]
		for _, v := range g.nbrs[u] { // ascending: the draw is fixed per seed
			if dist[v] == dist[u]-1 {
				choices = append(choices, v)
			}
		}
		u = choices[rng.Intn(len(choices))]
		path = append(path, u)
	}
	return path
}

// Connected reports whether the graph is connected (vacuously true for
// n <= 1).
func (g *Multigraph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	for _, d := range g.BFS(0) {
		if d == unreachable {
			return false
		}
	}
	return true
}

// Components returns the connected components as slices of vertices, each
// sorted ascending, ordered by smallest member.
func (g *Multigraph) Components() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		queue := []int{s}
		seen[s] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for _, v := range g.nbrs[u] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	for _, c := range comps {
		slices.Sort(c)
	}
	return comps
}

// Eccentricity returns the maximum distance from src to any reachable
// vertex. It returns an error if some vertex is unreachable.
func (g *Multigraph) Eccentricity(src int) (int, error) {
	ecc := 0
	for v, d := range g.BFS(src) {
		if d == unreachable {
			return 0, fmt.Errorf("multigraph: vertex %d unreachable from %d", v, src)
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc, nil
}

// Diameter returns the exact diameter by running a BFS from every vertex.
// O(n * (n + pairs)); use EstimateDiameter for large graphs. It returns an
// error on disconnected graphs.
func (g *Multigraph) Diameter() (int, error) {
	if g.n == 0 {
		return 0, nil
	}
	diam := 0
	for u := 0; u < g.n; u++ {
		ecc, err := g.Eccentricity(u)
		if err != nil {
			return 0, err
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam, nil
}

// EstimateDiameter lower-bounds the diameter with a double-sweep heuristic
// repeated `sweeps` times from random starts. On trees the double sweep is
// exact; on the paper's machines it is within a small constant. It returns
// an error on disconnected graphs.
func (g *Multigraph) EstimateDiameter(sweeps int, rng *rand.Rand) (int, error) {
	if g.n == 0 {
		return 0, nil
	}
	if sweeps < 1 {
		sweeps = 1
	}
	best := 0
	for s := 0; s < sweeps; s++ {
		start := rng.Intn(g.n)
		d1 := g.BFS(start)
		far, fd := start, 0
		for v, d := range d1 {
			if d == unreachable {
				return 0, fmt.Errorf("multigraph: disconnected (vertex %d)", v)
			}
			if d > fd {
				far, fd = v, d
			}
		}
		d2 := g.BFS(far)
		for _, d := range d2 {
			if d > best {
				best = d
			}
		}
	}
	return best, nil
}

// AverageDistance returns the exact mean distance over all ordered vertex
// pairs (u != v). O(n * (n + pairs)). It returns an error on disconnected
// graphs or graphs with fewer than 2 vertices.
func (g *Multigraph) AverageDistance() (float64, error) {
	if g.n < 2 {
		return 0, fmt.Errorf("multigraph: average distance undefined for n=%d", g.n)
	}
	var total int64
	for u := 0; u < g.n; u++ {
		for v, d := range g.BFS(u) {
			if d == unreachable {
				return 0, fmt.Errorf("multigraph: vertex %d unreachable from %d", v, u)
			}
			total += int64(d)
		}
	}
	return float64(total) / float64(g.n) / float64(g.n-1), nil
}

// SampleAverageDistance estimates the mean pairwise distance from `samples`
// random BFS sources. For samples >= n it falls back to the exact
// computation.
func (g *Multigraph) SampleAverageDistance(samples int, rng *rand.Rand) (float64, error) {
	if g.n < 2 {
		return 0, fmt.Errorf("multigraph: average distance undefined for n=%d", g.n)
	}
	if samples >= g.n {
		return g.AverageDistance()
	}
	if samples < 1 {
		samples = 1
	}
	var total int64
	for s := 0; s < samples; s++ {
		u := rng.Intn(g.n)
		for v, d := range g.BFS(u) {
			if d == unreachable {
				return 0, fmt.Errorf("multigraph: vertex %d unreachable from %d", v, u)
			}
			total += int64(d)
		}
	}
	return float64(total) / float64(samples) / float64(g.n-1), nil
}
