package multigraph

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func path(n int) *Multigraph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddSimpleEdge(i, i+1)
	}
	return g
}

func cycle(n int) *Multigraph {
	g := path(n)
	if n > 2 {
		g.AddSimpleEdge(n-1, 0)
	}
	return g
}

func complete(n int) *Multigraph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddSimpleEdge(u, v)
		}
	}
	return g
}

func grid(r, c int) *Multigraph {
	g := New(r * c)
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

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 {
		t.Fatalf("N = %d, want 5", g.N())
	}
	if g.E() != 0 {
		t.Fatalf("E = %d, want 0", g.E())
	}
	if g.DistinctEdges() != 0 {
		t.Fatalf("DistinctEdges = %d, want 0", g.DistinctEdges())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2)
	g.AddSimpleEdge(1, 2)
	if got := g.Multiplicity(0, 1); got != 2 {
		t.Errorf("Multiplicity(0,1) = %d, want 2", got)
	}
	if got := g.Multiplicity(1, 0); got != 2 {
		t.Errorf("Multiplicity(1,0) = %d, want 2 (undirected)", got)
	}
	if got := g.E(); got != 3 {
		t.Errorf("E = %d, want 3", got)
	}
	if got := g.DistinctEdges(); got != 2 {
		t.Errorf("DistinctEdges = %d, want 2", got)
	}
	if !g.HasEdge(0, 1) || g.HasEdge(0, 2) {
		t.Errorf("HasEdge wrong: %v %v", g.HasEdge(0, 1), g.HasEdge(0, 2))
	}
}

func TestAddEdgeSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	New(2).AddEdge(1, 1, 1)
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range vertex did not panic")
		}
	}()
	New(2).AddEdge(0, 2, 1)
}

func TestAddEdgeZeroMultPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero multiplicity did not panic")
		}
	}()
	New(2).AddEdge(0, 1, 0)
}

func TestRemoveEdge(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 5)
	if got := g.RemoveEdge(0, 1, 2); got != 2 {
		t.Fatalf("removed %d, want 2", got)
	}
	if got := g.Multiplicity(0, 1); got != 3 {
		t.Fatalf("mult = %d, want 3", got)
	}
	if got := g.RemoveEdge(0, 1, 100); got != 3 {
		t.Fatalf("removed %d, want 3", got)
	}
	if g.HasEdge(0, 1) {
		t.Fatal("edge should be gone")
	}
	if g.E() != 0 {
		t.Fatalf("E = %d, want 0", g.E())
	}
	if got := g.RemoveEdge(0, 1, 1); got != 0 {
		t.Fatalf("removing absent edge returned %d, want 0", got)
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(5)
	g.AddSimpleEdge(2, 4)
	g.AddSimpleEdge(2, 0)
	g.AddSimpleEdge(2, 3)
	got := g.Neighbors(2)
	want := []int{0, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Neighbors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors = %v, want %v", got, want)
		}
	}
}

func TestDegrees(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 3)
	g.AddSimpleEdge(0, 2)
	if got := g.Degree(0); got != 4 {
		t.Errorf("Degree(0) = %d, want 4", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := path(4)
	h := g.Clone()
	h.AddSimpleEdge(0, 3)
	if g.HasEdge(0, 3) {
		t.Fatal("Clone shares storage with original")
	}
	if g.E() != 3 || h.E() != 4 {
		t.Fatalf("E: g=%d h=%d, want 3 and 4", g.E(), h.E())
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New(4)
	g.AddSimpleEdge(2, 3)
	g.AddEdge(0, 1, 2)
	g.AddSimpleEdge(1, 3)
	es := g.Edges()
	want := []Edge{{0, 1, 2}, {1, 3, 1}, {2, 3, 1}}
	if len(es) != len(want) {
		t.Fatalf("Edges = %v, want %v", es, want)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("Edges[%d] = %v, want %v", i, es[i], want[i])
		}
	}
}

func TestBFSPath(t *testing.T) {
	g := path(6)
	d := g.BFS(0)
	for v := 0; v < 6; v++ {
		if d[v] != v {
			t.Errorf("BFS dist to %d = %d, want %d", v, d[v], v)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := New(4)
	g.AddSimpleEdge(0, 1)
	d := g.BFS(0)
	if d[2] != -1 || d[3] != -1 {
		t.Fatalf("unreachable distances = %d,%d, want -1,-1", d[2], d[3])
	}
}

func TestShortestPath(t *testing.T) {
	g := cycle(6)
	p := g.ShortestPath(0, 3)
	if len(p) != 4 {
		t.Fatalf("path length %d, want 4 (path %v)", len(p), p)
	}
	if p[0] != 0 || p[len(p)-1] != 3 {
		t.Fatalf("path endpoints %v", p)
	}
	for i := 0; i+1 < len(p); i++ {
		if !g.HasEdge(p[i], p[i+1]) {
			t.Fatalf("path %v uses non-edge %d-%d", p, p[i], p[i+1])
		}
	}
	if p2 := g.ShortestPath(2, 2); len(p2) != 1 || p2[0] != 2 {
		t.Fatalf("trivial path = %v", p2)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New(3)
	g.AddSimpleEdge(0, 1)
	if p := g.ShortestPath(0, 2); p != nil {
		t.Fatalf("expected nil path, got %v", p)
	}
}

func TestRandomShortestPathValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := grid(5, 5)
	for trial := 0; trial < 50; trial++ {
		s, d := rng.Intn(25), rng.Intn(25)
		p := g.RandomShortestPath(s, d, rng)
		exact := g.BFS(s)[d]
		if len(p)-1 != exact {
			t.Fatalf("random path length %d, want %d", len(p)-1, exact)
		}
		for i := 0; i+1 < len(p); i++ {
			if !g.HasEdge(p[i], p[i+1]) {
				t.Fatalf("invalid step %d-%d in %v", p[i], p[i+1], p)
			}
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(5)
	g.AddSimpleEdge(0, 1)
	g.AddSimpleEdge(3, 4)
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %v, want 3 parts", comps)
	}
	if !path(7).Connected() {
		t.Fatal("path reported disconnected")
	}
}

func TestDiameter(t *testing.T) {
	cases := []struct {
		g    *Multigraph
		want int
	}{
		{path(8), 7},
		{cycle(8), 4},
		{complete(6), 1},
		{grid(4, 5), 7},
	}
	for i, c := range cases {
		got, err := c.g.Diameter()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != c.want {
			t.Errorf("case %d: diameter = %d, want %d", i, got, c.want)
		}
	}
}

func TestDiameterDisconnected(t *testing.T) {
	g := New(3)
	g.AddSimpleEdge(0, 1)
	if _, err := g.Diameter(); err == nil {
		t.Fatal("expected error for disconnected graph")
	}
}

func TestEstimateDiameterPathExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := path(40)
	got, err := g.EstimateDiameter(3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got != 39 {
		t.Fatalf("double sweep on path = %d, want 39", got)
	}
}

func TestEstimateDiameterNeverExceedsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := grid(6, 6)
	exact, _ := g.Diameter()
	got, err := g.EstimateDiameter(5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got > exact || got <= 0 {
		t.Fatalf("estimate %d out of (0, %d]", got, exact)
	}
}

func TestAverageDistance(t *testing.T) {
	// Path on 3 vertices: distances 1,2,1,1,2,1 -> mean 8/6.
	g := path(3)
	got, err := g.AverageDistance()
	if err != nil {
		t.Fatal(err)
	}
	if want := 8.0 / 6.0; got != want {
		t.Fatalf("avg distance = %v, want %v", got, want)
	}
	if _, err := New(1).AverageDistance(); err == nil {
		t.Fatal("expected error for n=1")
	}
}

func TestSampleAverageDistanceClose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := grid(8, 8)
	exact, _ := g.AverageDistance()
	est, err := g.SampleAverageDistance(20, rng)
	if err != nil {
		t.Fatal(err)
	}
	if est < exact*0.7 || est > exact*1.3 {
		t.Fatalf("sampled avg %v too far from exact %v", est, exact)
	}
}

func TestExactBisection(t *testing.T) {
	cases := []struct {
		g    *Multigraph
		want int64
	}{
		{path(8), 1},
		{cycle(8), 2},
		{complete(4), 4}, // K4 balanced cut: 2*2 = 4
		{grid(4, 4), 4},  // cut down the middle
		{New(2), 0},      // no edges
	}
	for i, c := range cases {
		if got := c.g.ExactBisection(); got != c.want {
			t.Errorf("case %d: bisection = %d, want %d", i, got, c.want)
		}
	}
}

func TestExactBisectionMultiplicities(t *testing.T) {
	// Two triangle-ish clusters joined by a fat edge of multiplicity 3.
	g := New(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(2, 3, 5)
	g.AddEdge(1, 2, 3)
	if got := g.ExactBisection(); got != 3 {
		t.Fatalf("bisection = %d, want 3", got)
	}
}

func TestEstimateBisectionMatchesSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := grid(4, 5) // n=20: estimate path still uses exact
	if got, want := g.EstimateBisection(3, rng), g.ExactBisection(); got != want {
		t.Fatalf("estimate %d != exact %d", got, want)
	}
}

func TestEstimateBisectionGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := grid(8, 8) // true bisection 8
	got := g.EstimateBisection(8, rng)
	if got < 8 {
		t.Fatalf("estimate %d below true bisection 8", got)
	}
	if got > 16 {
		t.Fatalf("estimate %d too loose (true 8)", got)
	}
}

func TestCutWeight(t *testing.T) {
	g := path(4)
	side := []bool{true, true, false, false}
	if got := g.CutWeight(side); got != 1 {
		t.Fatalf("cut = %d, want 1", got)
	}
	side = []bool{true, false, true, false}
	if got := g.CutWeight(side); got != 3 {
		t.Fatalf("cut = %d, want 3", got)
	}
}

func TestString(t *testing.T) {
	g := path(3)
	if s := g.String(); !strings.Contains(s, "n=3") || !strings.Contains(s, "E=2") {
		t.Fatalf("String() = %q", s)
	}
}

// randomGraph builds a random simple graph with n vertices and roughly m
// distinct edges for property tests.
func randomGraph(n, m int, rng *rand.Rand) *Multigraph {
	g := New(n)
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v, int64(1+rng.Intn(3)))
		}
	}
	return g
}

func TestPropertyDegreeSumEqualsTwiceEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(2+rng.Intn(30), rng.Intn(100), rng)
		var sum int64
		for u := 0; u < g.N(); u++ {
			sum += g.Degree(u)
		}
		return sum == 2*g.E()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBFSTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		g := randomGraph(n, 3*n, rng)
		// Make connected by threading a path.
		for i := 0; i+1 < n; i++ {
			if !g.HasEdge(i, i+1) {
				g.AddSimpleEdge(i, i+1)
			}
		}
		a, b, c := rng.Intn(n), rng.Intn(n), rng.Intn(n)
		da := g.BFS(a)
		db := g.BFS(b)
		return da[c] <= da[b]+db[c]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCutWeightSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := randomGraph(n, 2*n, rng)
		side := make([]bool, n)
		inv := make([]bool, n)
		for i := range side {
			side[i] = rng.Intn(2) == 0
			inv[i] = !side[i]
		}
		return g.CutWeight(side) == g.CutWeight(inv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// A random interleaving of insertions, partial and over-removals and
// clones must leave the sorted adjacency equal to a plain pair model:
// every entry whose multiplicity reaches zero is gone, every neighbour
// list is strictly ascending, and Edges lists the pairs in order. Induced
// on a random ascending subset must equal the model restricted to it.
func TestPropertyAdjacencyMatchesPairModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		g := New(n)
		model := map[[2]int]int64{}
		pair := func() (int, int) {
			u := rng.Intn(n)
			v := (u + 1 + rng.Intn(n-1)) % n
			return u, v
		}
		key := func(u, v int) [2]int { return [2]int{min(u, v), max(u, v)} }
		for op := 0; op < 80; op++ {
			switch r := rng.Intn(10); {
			case r < 5:
				u, v := pair()
				m := int64(1 + rng.Intn(3))
				g.AddEdge(u, v, m)
				model[key(u, v)] += m
			case r < 9:
				u, v := pair()
				cur := model[key(u, v)]
				m := int64(rng.Intn(int(cur) + 3)) // 0, partial, exact or over
				want := min(max(m, 0), cur)
				if got := g.RemoveEdge(u, v, m); got != want {
					t.Logf("seed %d op %d: RemoveEdge(%d,%d,%d) = %d, want %d", seed, op, u, v, m, got, want)
					return false
				}
				if model[key(u, v)] -= want; model[key(u, v)] == 0 {
					delete(model, key(u, v))
				}
			default:
				// Edits to the original must not reach the clone.
				old := g
				g = g.Clone()
				u, v := pair()
				old.AddEdge(u, v, 1)
			}
			if err := matchesModel(g, model); err != "" {
				t.Logf("seed %d op %d: %s", seed, op, err)
				return false
			}
			// Induced on a random ascending subset matches the model
			// restricted to it, with vertices renumbered by position.
			var part []int
			for v := 0; v < n; v++ {
				if rng.Intn(2) == 0 {
					part = append(part, v)
				}
			}
			sub := map[[2]int]int64{}
			for i, u := range part {
				for j := i + 1; j < len(part); j++ {
					if m := model[[2]int{u, part[j]}]; m > 0 {
						sub[[2]int{i, j}] = m
					}
				}
			}
			pos := make([]int32, n)
			if err := matchesModel(g.Induced(part, pos), sub); err != "" {
				t.Logf("seed %d op %d: Induced(%v): %s", seed, op, part, err)
				return false
			}
			if slices.ContainsFunc(pos, func(p int32) bool { return p != 0 }) {
				t.Logf("seed %d op %d: Induced left its position table dirty: %v", seed, op, pos)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// matchesModel compares g with a model of unordered pairs (U < V) to their
// multiplicities and describes the first difference, or returns "".
func matchesModel(g *Multigraph, model map[[2]int]int64) string {
	var total int64
	var want []Edge
	for p, m := range model {
		total += m
		want = append(want, Edge{U: p[0], V: p[1], Mult: m})
	}
	slices.SortFunc(want, func(a, b Edge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) })
	if g.E() != total || g.DistinctEdges() != len(model) {
		return fmt.Sprintf("E=%d pairs=%d, want %d and %d", g.E(), g.DistinctEdges(), total, len(model))
	}
	if got := g.Edges(); !slices.Equal(got, want) {
		return fmt.Sprintf("Edges = %v, want %v", got, want)
	}
	for u := 0; u < g.N(); u++ {
		var nbrs []int
		var deg int64
		for v := 0; v < g.N(); v++ {
			m := model[[2]int{min(u, v), max(u, v)}]
			if got := g.Multiplicity(u, v); got != m {
				return fmt.Sprintf("Multiplicity(%d,%d) = %d, want %d", u, v, got, m)
			}
			if m > 0 {
				nbrs = append(nbrs, v)
				deg += m
			}
		}
		if got := g.Neighbors(u); !slices.Equal(got, nbrs) {
			return fmt.Sprintf("Neighbors(%d) = %v, want %v", u, got, nbrs)
		}
		if got := g.Degree(u); got != deg {
			return fmt.Sprintf("Degree(%d) = %d, want %d", u, got, deg)
		}
	}
	return ""
}

// Induced packs its lists into shared arrays; adding an edge to one vertex
// of the result must not write into its neighbour's list.
func TestInducedListsAreIndependent(t *testing.T) {
	h := path(4).Induced([]int{0, 1, 2, 3}, make([]int32, 4))
	h.AddSimpleEdge(0, 3)
	for u, want := range [][]int{{1, 3}, {0, 2}, {1, 3}, {0, 2}} {
		if got := h.Neighbors(u); !slices.Equal(got, want) {
			t.Errorf("Neighbors(%d) = %v, want %v", u, got, want)
		}
	}
}
