package embed

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/multigraph"
	"repro/internal/traffic"
)

func path(n int) *multigraph.Multigraph {
	g := multigraph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddSimpleEdge(i, i+1)
	}
	return g
}

func cycle(n int) *multigraph.Multigraph {
	g := path(n)
	g.AddSimpleEdge(n-1, 0)
	return g
}

func grid(r, c int) *multigraph.Multigraph {
	g := multigraph.New(r * c)
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if i+1 < r {
				g.AddSimpleEdge(id(i, j), id(i+1, j))
			}
			if j+1 < c {
				g.AddSimpleEdge(id(i, j), id(i, j+1))
			}
		}
	}
	return g
}

// dilation returns the longest path of e in edges.
func dilation(e *Embedding) int {
	worst := 0
	for _, p := range e.Paths {
		worst = max(worst, len(p.Vertices)-1)
	}
	return worst
}

func TestIdentityMap(t *testing.T) {
	m := IdentityMap(4)
	for i, v := range m {
		if v != i {
			t.Fatalf("IdentityMap[%d] = %d", i, v)
		}
	}
}

func TestShortestPathsCycleIntoPath(t *testing.T) {
	// Embed the 6-cycle into the 6-path: the wrap edge must route the long
	// way, so congestion 2 (edge 0-1 carries the wrap path and edge 0-1),
	// dilation 5.
	host := path(6)
	guest := cycle(6)
	e := ShortestPaths(host, guest, IdentityMap(6))
	if got := dilation(e); got != 5 {
		t.Fatalf("dilation = %d, want 5", got)
	}
	if got := e.Congestion(); got != 2 {
		t.Fatalf("congestion = %d, want 2", got)
	}
}

func TestShortestPathsTrivial(t *testing.T) {
	// All guest vertices collapse to the same host vertex: no host load.
	host := path(3)
	guest := cycle(3)
	e := ShortestPaths(host, guest, []int{1, 1, 1})
	if e.Congestion() != 0 {
		t.Fatalf("congestion = %d, want 0", e.Congestion())
	}
	if dilation(e) != 0 {
		t.Fatalf("dilation = %d, want 0", dilation(e))
	}
}

func TestCongestionRespectsHostMultiplicity(t *testing.T) {
	// Host path with a doubled middle wire halves the per-wire congestion.
	host := multigraph.New(3)
	host.AddEdge(0, 1, 2)
	host.AddEdge(1, 2, 2)
	guest := multigraph.New(3)
	guest.AddEdge(0, 2, 4)
	e := ShortestPaths(host, guest, IdentityMap(3))
	if got := e.Congestion(); got != 2 { // 4 units over 2 parallel wires
		t.Fatalf("congestion = %d, want 2", got)
	}
}

func TestRandomShortestPathsValidAndShort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	host := grid(5, 5)
	guest := traffic.NewSymmetric(25).Graph()
	e := RandomShortestPaths(host, guest, IdentityMap(25), rng)
	for _, p := range e.Paths {
		want := host.BFS(p.Vertices[0])[p.Vertices[len(p.Vertices)-1]]
		if len(p.Vertices)-1 != want {
			t.Fatalf("path %v not shortest (want len %d)", p.Vertices, want)
		}
	}
}

func TestImproveNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	host := grid(4, 4)
	guest := traffic.NewSymmetric(16).Graph()
	e := ShortestPaths(host, guest, IdentityMap(16))
	before := e.Congestion()
	after := e.Improve(3, rng)
	if after > before {
		t.Fatalf("Improve worsened congestion: %d -> %d", before, after)
	}
	// Paths must stay valid.
	for _, p := range e.Paths {
		for i := 0; i+1 < len(p.Vertices); i++ {
			if !host.HasEdge(p.Vertices[i], p.Vertices[i+1]) {
				t.Fatalf("invalid path after Improve: %v", p.Vertices)
			}
		}
	}
}

func TestImproveSpreadsCycleLoad(t *testing.T) {
	// Heavy parallel demand between opposite corners of a cycle: the
	// deterministic embedding puts everything on one side; Improve should
	// split it across both.
	rng := rand.New(rand.NewSource(3))
	host := cycle(8)
	guest := multigraph.New(8)
	guest.AddEdge(0, 4, 8)
	e := ShortestPaths(host, guest, IdentityMap(8))
	if e.Congestion() != 8 {
		t.Fatalf("pre congestion = %d, want 8", e.Congestion())
	}
	// A single path cannot split its own load; but with two guest edges the
	// halves can diverge.
	guest2 := multigraph.New(8)
	guest2.AddEdge(0, 4, 4)
	guest2.AddEdge(4, 0, 4) // same pair; merged multiplicity 8, single path
	_ = guest2
	guest3 := multigraph.New(8)
	guest3.AddEdge(0, 4, 4)
	guest3.AddEdge(0, 3, 4)
	e3 := ShortestPaths(host, guest3, IdentityMap(8))
	improved := e3.Improve(4, rng)
	if improved > e3.Congestion() {
		t.Fatal("inconsistent return value")
	}
	if improved > 8 {
		t.Fatalf("congestion %d not reduced", improved)
	}
}

func TestFluxLowerBound(t *testing.T) {
	// Path host, all-pairs traffic on 4 vertices: total distance volume =
	// sum over pairs of distance = (3*1 + 2*2 + 1*3) = 10; wires = 3.
	host := path(4)
	tr := traffic.NewSymmetric(4).Graph()
	got := FluxLowerBound(host, tr, IdentityMap(4))
	want := 10.0 / 3.0
	if got != want {
		t.Fatalf("flux = %v, want %v", got, want)
	}
}

func TestCutLowerBound(t *testing.T) {
	host := path(4)
	tr := traffic.NewSymmetric(4).Graph()
	side := []bool{true, true, false, false}
	// 4 traffic pairs cross the single cut wire.
	got := CutLowerBound(host, tr, IdentityMap(4), side)
	if got != 4 {
		t.Fatalf("cut bound = %v, want 4", got)
	}
}

func TestCutLowerBoundZeroCut(t *testing.T) {
	host := path(2)
	tr := multigraph.New(2)
	tr.AddSimpleEdge(0, 1)
	// Degenerate all-one-side partition has no cut.
	if got := CutLowerBound(host, tr, IdentityMap(2), []bool{true, true}); got != 0 {
		t.Fatalf("cut bound = %v, want 0", got)
	}
}

func TestFractionalCongestionPathAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Path host: the middle wire must carry all 2*(n/2)² ordered... with
	// unordered K_n weights: (n/2)*(n/2) pairs cross the middle.
	host := path(8)
	tr := traffic.NewSymmetric(8).Graph()
	got := FractionalCongestion(host, tr, IdentityMap(8), 4, rng)
	if got != 16 { // 4*4 pairs cross wire 3-4, paths are unique on a path graph
		t.Fatalf("fractional congestion = %v, want 16", got)
	}
}

func TestEstimateGCongestionBrackets(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	host := grid(4, 4)
	tr := traffic.NewSymmetric(16).Graph()
	lower, upper := EstimateGCongestion(host, tr, IdentityMap(16), 8, rng)
	if lower <= 0 || upper <= 0 {
		t.Fatalf("bounds not positive: [%v, %v]", lower, upper)
	}
	if lower > upper {
		t.Fatalf("lower %v > upper %v", lower, upper)
	}
	// On a 4x4 grid with all-pairs traffic the bracket should be tight-ish.
	if upper > 8*lower {
		t.Fatalf("bracket too loose: [%v, %v]", lower, upper)
	}
}

func TestShortestPathsBadMapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ShortestPaths(path(3), cycle(3), []int{0, 1})
}

func TestCongestionCrossNonEdgePanics(t *testing.T) {
	host := path(3)
	e := &Embedding{Host: host, Guest: cycle(3), VertexMap: IdentityMap(3)}
	e.Paths = []Path{{GuestEdge: multigraph.Edge{U: 0, V: 2, Mult: 1}, Vertices: []int{0, 2}}}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for path over non-edge")
		}
	}()
	e.Congestion()
}

// Property: max congestion >= average congestion = flux bound, and
// Improve keeps paths valid while never worsening the maximum.
func TestPropertyCongestionAboveFlux(t *testing.T) {
	g := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		host := grid(4, 4)
		tr := multigraph.New(16)
		for i := 0; i < 20; i++ {
			u, v := rng.Intn(16), rng.Intn(16)
			if u != v {
				tr.AddEdge(u, v, int64(1+rng.Intn(3)))
			}
		}
		if tr.E() == 0 {
			return true
		}
		e := RandomShortestPaths(host, tr, IdentityMap(16), rng)
		flux := FluxLowerBound(host, tr, IdentityMap(16))
		if float64(e.Congestion()) < flux-1e-9 {
			return false
		}
		before := e.Congestion()
		if e.Improve(2, rng) > before {
			return false
		}
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
