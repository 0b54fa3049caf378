package topology

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/multigraph"
)

// simpleDegree returns the number of distinct neighbours of u.
func simpleDegree(g *multigraph.Multigraph, u int) int { return len(g.Neighbors(u)) }

// maxDegree returns the maximum degree over all vertices, counting
// multiplicities.
func maxDegree(g *multigraph.Multigraph) int64 {
	var max int64
	for u := 0; u < g.N(); u++ {
		if d := g.Degree(u); d > max {
			max = d
		}
	}
	return max
}

func TestLinearArray(t *testing.T) {
	m := LinearArray(10)
	if m.N() != 10 || m.Graph.E() != 9 {
		t.Fatalf("N=%d E=%d, want 10,9", m.N(), m.Graph.E())
	}
	d, err := m.Graph.Diameter()
	if err != nil || d != 9 {
		t.Fatalf("diameter = %d (%v), want 9", d, err)
	}
	if m.Cap(0) != -1 {
		t.Fatal("linear array should be uncapacitated")
	}
}

func TestRing(t *testing.T) {
	m := Ring(8)
	if m.Graph.E() != 8 {
		t.Fatalf("E = %d, want 8", m.Graph.E())
	}
	d, _ := m.Graph.Diameter()
	if d != 4 {
		t.Fatalf("diameter = %d, want 4", d)
	}
	for v := 0; v < 8; v++ {
		if m.Graph.Degree(v) != 2 {
			t.Fatalf("degree(%d) = %d, want 2", v, m.Graph.Degree(v))
		}
	}
}

func TestGlobalBus(t *testing.T) {
	m := GlobalBus(16)
	if m.N() != 16 {
		t.Fatalf("N = %d, want 16", m.N())
	}
	if m.Vertices() != 17 {
		t.Fatalf("vertices = %d, want 17 (hub)", m.Vertices())
	}
	hub := 16
	if m.IsProcessor(hub) {
		t.Fatal("hub should not be a processor")
	}
	if m.Cap(hub) != 1 {
		t.Fatalf("hub cap = %d, want 1", m.Cap(hub))
	}
	if m.Cap(0) != -1 {
		t.Fatal("processors should be uncapacitated")
	}
	d, _ := m.Graph.Diameter()
	if d != 2 {
		t.Fatalf("diameter = %d, want 2", d)
	}
}

func TestTree(t *testing.T) {
	m := Tree(5)
	if m.N() != 31 {
		t.Fatalf("N = %d, want 31", m.N())
	}
	if m.Graph.E() != 30 {
		t.Fatalf("E = %d, want 30 (tree)", m.Graph.E())
	}
	d, _ := m.Graph.Diameter()
	if d != 8 {
		t.Fatalf("diameter = %d, want 8 (leaf to leaf)", d)
	}
}

func TestXTree(t *testing.T) {
	m := XTree(4)
	// 15 nodes; tree edges 14, plus horizontal: level1 has 1, level2 has 3,
	// level3 has 7 -> 14+11 = 25.
	if m.N() != 15 {
		t.Fatalf("N = %d, want 15", m.N())
	}
	if m.Graph.E() != 25 {
		t.Fatalf("E = %d, want 25", m.Graph.E())
	}
	// Horizontal neighbours at the deepest level.
	if !m.Graph.HasEdge(7, 8) || !m.Graph.HasEdge(13, 14) {
		t.Fatal("missing horizontal X-tree edges")
	}
	// No wraparound within a level.
	if m.Graph.HasEdge(7, 14) {
		t.Fatal("unexpected wraparound edge")
	}
}

func TestWeakPPN(t *testing.T) {
	m := WeakPPN(8)
	if m.N() != 8 {
		t.Fatalf("procs = %d, want 8", m.N())
	}
	if m.Vertices() != 15 {
		t.Fatalf("vertices = %d, want 15", m.Vertices())
	}
	// Leaves must all have degree 1 (they hang off the combining tree).
	for v := 0; v < 8; v++ {
		if m.Graph.Degree(v) != 1 {
			t.Fatalf("leaf %d degree = %d, want 1", v, m.Graph.Degree(v))
		}
	}
	if !m.Graph.Connected() {
		t.Fatal("disconnected")
	}
}

func TestWeakPPNBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WeakPPN(6) did not panic")
		}
	}()
	WeakPPN(6)
}

func TestMesh2(t *testing.T) {
	m := Mesh(2, 4)
	if m.N() != 16 {
		t.Fatalf("N = %d, want 16", m.N())
	}
	if m.Graph.E() != 24 { // 2 * 4 * 3
		t.Fatalf("E = %d, want 24", m.Graph.E())
	}
	d, _ := m.Graph.Diameter()
	if d != 6 {
		t.Fatalf("diameter = %d, want 6", d)
	}
}

func TestMesh3(t *testing.T) {
	m := Mesh(3, 3)
	if m.N() != 27 {
		t.Fatalf("N = %d, want 27", m.N())
	}
	if m.Graph.E() != 54 { // 3 * 9 * 2
		t.Fatalf("E = %d, want 54", m.Graph.E())
	}
	d, _ := m.Graph.Diameter()
	if d != 6 {
		t.Fatalf("diameter = %d, want 6", d)
	}
}

func TestTorus(t *testing.T) {
	m := Torus(2, 4)
	if m.Graph.E() != 32 { // 2n edges, n=16
		t.Fatalf("E = %d, want 32", m.Graph.E())
	}
	for v := 0; v < 16; v++ {
		if m.Graph.Degree(v) != 4 {
			t.Fatalf("degree(%d) = %d, want 4", v, m.Graph.Degree(v))
		}
	}
	d, _ := m.Graph.Diameter()
	if d != 4 {
		t.Fatalf("diameter = %d, want 4", d)
	}
}

func TestTorus1IsRing(t *testing.T) {
	m := Torus(1, 6)
	if m.Graph.E() != 6 {
		t.Fatalf("E = %d, want 6", m.Graph.E())
	}
	d, _ := m.Graph.Diameter()
	if d != 3 {
		t.Fatalf("diameter = %d, want 3", d)
	}
}

func TestXGrid2(t *testing.T) {
	m := XGrid(2, 3)
	// Mesh edges: 2*3*2=12; diagonals: 4 cells * 2 = 8.
	if m.Graph.E() != 20 {
		t.Fatalf("E = %d, want 20", m.Graph.E())
	}
	// Center vertex (1,1) = id 4 has all 8 neighbours.
	if simpleDegree(m.Graph, 4) != 8 {
		t.Fatalf("center degree = %d, want 8", simpleDegree(m.Graph, 4))
	}
	d, _ := m.Graph.Diameter()
	if d != 2 {
		t.Fatalf("diameter = %d, want 2", d)
	}
}

func TestMeshOfTrees2(t *testing.T) {
	m := MeshOfTrees(2, 4)
	// 16 leaves + 8 trees * 3 internal = 40 vertices.
	if m.N() != 40 {
		t.Fatalf("N = %d, want 40", m.N())
	}
	// Each tree over 4 leaves has 6 edges (3 internal nodes in a binary
	// tree over 4 leaves -> 2*3 edges); 8 trees -> 48 edges.
	if m.Graph.E() != 48 {
		t.Fatalf("E = %d, want 48", m.Graph.E())
	}
	if !m.Graph.Connected() {
		t.Fatal("disconnected")
	}
	// Leaves have degree 2 (one row tree + one column tree).
	for v := 0; v < 16; v++ {
		if m.Graph.Degree(v) != 2 {
			t.Fatalf("leaf %d degree = %d, want 2", v, m.Graph.Degree(v))
		}
	}
}

func TestPyramid2(t *testing.T) {
	m := Pyramid(2, 4)
	// Levels: 16 + 4 + 1 = 21 vertices.
	if m.N() != 21 {
		t.Fatalf("N = %d, want 21", m.N())
	}
	if !m.Graph.Connected() {
		t.Fatal("disconnected")
	}
	// Apex (last vertex) connects to all 4 level-1 cells.
	apex := 20
	if simpleDegree(m.Graph, apex) != 4 {
		t.Fatalf("apex degree = %d, want 4", simpleDegree(m.Graph, apex))
	}
	// Level-1 cell connects to 4 children + apex + 2 mesh neighbours = 7.
	if got := simpleDegree(m.Graph, 16); got != 7 {
		t.Fatalf("level-1 degree = %d, want 7", got)
	}
	d, _ := m.Graph.Diameter()
	if d > 6 {
		t.Fatalf("diameter = %d, want O(lg n) (<= 6)", d)
	}
}

func TestMultigrid2(t *testing.T) {
	m := Multigrid(2, 4)
	if m.N() != 21 {
		t.Fatalf("N = %d, want 21", m.N())
	}
	if !m.Graph.Connected() {
		t.Fatal("disconnected")
	}
	// Apex connects only to the aligned corner of level 1.
	apex := 20
	if simpleDegree(m.Graph, apex) != 1 {
		t.Fatalf("apex degree = %d, want 1", simpleDegree(m.Graph, apex))
	}
	// Multigrid has fewer edges than the pyramid on the same parameters.
	p := Pyramid(2, 4)
	if m.Graph.E() >= p.Graph.E() {
		t.Fatalf("multigrid E=%d should be < pyramid E=%d", m.Graph.E(), p.Graph.E())
	}
}

func TestButterfly(t *testing.T) {
	m := Butterfly(3)
	if m.N() != 32 { // 4 levels * 8 rows
		t.Fatalf("N = %d, want 32", m.N())
	}
	if m.Graph.E() != 48 { // 3 levels * 8 rows * 2 edges
		t.Fatalf("E = %d, want 48", m.Graph.E())
	}
	// Interior vertices have degree 4, boundary levels degree 2.
	if m.Graph.Degree(0) != 2 {
		t.Fatalf("level-0 degree = %d, want 2", m.Graph.Degree(0))
	}
	if m.Graph.Degree(8) != 4 {
		t.Fatalf("level-1 degree = %d, want 4", m.Graph.Degree(8))
	}
	if !m.Graph.Connected() {
		t.Fatal("disconnected")
	}
}

func TestWrappedButterfly(t *testing.T) {
	m := WrappedButterfly(3)
	if m.N() != 24 { // 3 levels * 8 rows
		t.Fatalf("N = %d, want 24", m.N())
	}
	for v := 0; v < m.N(); v++ {
		if m.Graph.Degree(v) != 4 {
			t.Fatalf("degree(%d) = %d, want 4 (regular)", v, m.Graph.Degree(v))
		}
	}
}

func TestCCC(t *testing.T) {
	m := CubeConnectedCycles(3)
	if m.N() != 24 {
		t.Fatalf("N = %d, want 24", m.N())
	}
	for v := 0; v < m.N(); v++ {
		if m.Graph.Degree(v) != 3 {
			t.Fatalf("degree(%d) = %d, want 3", v, m.Graph.Degree(v))
		}
	}
	if !m.Graph.Connected() {
		t.Fatal("disconnected")
	}
}

func TestShuffleExchange(t *testing.T) {
	m := ShuffleExchange(4)
	if m.N() != 16 {
		t.Fatalf("N = %d, want 16", m.N())
	}
	if maxDegree(m.Graph) > 3 {
		t.Fatalf("max degree = %d, want <= 3", maxDegree(m.Graph))
	}
	if !m.Graph.Connected() {
		t.Fatal("disconnected")
	}
	// Exchange edge 0-1 and shuffle edge 1-2 (rotate-left of 0001 = 0010).
	if !m.Graph.HasEdge(0, 1) || !m.Graph.HasEdge(1, 2) {
		t.Fatal("missing canonical shuffle-exchange edges")
	}
}

func TestDeBruijn(t *testing.T) {
	m := DeBruijn(4)
	if m.N() != 16 {
		t.Fatalf("N = %d, want 16", m.N())
	}
	if maxDegree(m.Graph) > 4 {
		t.Fatalf("max degree = %d, want <= 4", maxDegree(m.Graph))
	}
	if !m.Graph.Connected() {
		t.Fatal("disconnected")
	}
	// de Bruijn diameter is exactly the order.
	d, _ := m.Graph.Diameter()
	if d != 4 {
		t.Fatalf("diameter = %d, want 4", d)
	}
}

func TestWeakHypercube(t *testing.T) {
	m := WeakHypercube(4)
	if m.N() != 16 {
		t.Fatalf("N = %d, want 16", m.N())
	}
	for v := 0; v < m.N(); v++ {
		if m.Graph.Degree(v) != 4 {
			t.Fatalf("degree(%d) = %d, want 4", v, m.Graph.Degree(v))
		}
		if m.Cap(v) != 1 {
			t.Fatalf("cap(%d) = %d, want 1 (one-port)", v, m.Cap(v))
		}
	}
	d, _ := m.Graph.Diameter()
	if d != 4 {
		t.Fatalf("diameter = %d, want 4", d)
	}
}

func TestExpander(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := Expander(64, rng)
	if m.N() != 64 {
		t.Fatalf("N = %d, want 64", m.N())
	}
	if m.Graph.E() != 128 { // deg/2 permutation cycles of 64 edges each
		t.Fatalf("E = %d, want 128", m.Graph.E())
	}
	if !m.Graph.Connected() {
		t.Fatal("disconnected")
	}
	// Expanders have logarithmic diameter.
	d, _ := m.Graph.Diameter()
	if d > 12 {
		t.Fatalf("diameter = %d, want O(lg n)", d)
	}
}

func TestMultibutterfly(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m := Multibutterfly(3, rng)
	if m.N() != 32 {
		t.Fatalf("N = %d, want 32", m.N())
	}
	if !m.Graph.Connected() {
		t.Fatal("disconnected")
	}
	// Edges only run between consecutive levels.
	for _, e := range m.Graph.Edges() {
		lu, lv := e.U/8, e.V/8
		if lv-lu != 1 && lu-lv != 1 {
			t.Fatalf("edge %v spans levels %d-%d", e, lu, lv)
		}
	}
}

func TestFamilyString(t *testing.T) {
	for _, f := range Families() {
		if s := f.String(); s == "" || s[0] == 'F' && f != numFamilies {
			// Known families must not fall through to the default format.
			if len(s) > 7 && s[:7] == "Family(" {
				t.Errorf("family %d has no name", int(f))
			}
		}
	}
	if Family(99).String() != "Family(99)" {
		t.Error("unknown family should render numerically")
	}
}

func TestDimensioned(t *testing.T) {
	want := map[Family]bool{
		MeshFamily: true, TorusFamily: true, XGridFamily: true,
		MeshOfTreesFamily: true, MultigridFamily: true, PyramidFamily: true,
	}
	for _, f := range Families() {
		if f.Dimensioned() != want[f] {
			t.Errorf("Dimensioned(%v) = %v", f, f.Dimensioned())
		}
	}
}

func TestBuildAllFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, f := range Families() {
		dim := 0
		if f.Dimensioned() {
			dim = 2
		}
		m := Build(f, dim, 100, rng)
		if m == nil {
			t.Fatalf("Build(%v) returned nil", f)
		}
		if m.Family != f {
			t.Errorf("Build(%v) returned family %v", f, m.Family)
		}
		if m.N() < 8 || m.N() > 1000 {
			t.Errorf("Build(%v, approx 100) gave N = %d, not near 100", f, m.N())
		}
		if !m.Graph.Connected() {
			t.Errorf("Build(%v) disconnected", f)
		}
	}
}

func TestBuildSizesTrackTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, target := range []int{32, 128, 512, 2048} {
		m := Build(DeBruijnFamily, 0, target, rng)
		if m.N() < target/2 || m.N() > target*2 {
			t.Errorf("Build(DeBruijn, %d) gave N=%d", target, m.N())
		}
	}
}

func TestBuildDimRequired(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build(Mesh, dim=0) did not panic")
		}
	}()
	Build(MeshFamily, 0, 100, nil)
}

func TestBuildRNGRequired(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build(Expander, nil rng) did not panic")
		}
	}()
	Build(ExpanderFamily, 0, 100, nil)
}

func TestMachineString(t *testing.T) {
	m := LinearArray(4)
	if s := m.String(); s == "" {
		t.Fatal("empty String()")
	}
}

// Fixed-degree families (everything except bus-like machines whose hub
// degree grows) must have degree bounded by a constant independent of size.
func TestFixedDegreeFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	bounds := map[Family]int64{
		LinearArrayFamily:         2,
		RingFamily:                2,
		TreeFamily:                3,
		XTreeFamily:               5,
		MeshFamily:                4,
		TorusFamily:               4,
		XGridFamily:               8,
		MeshOfTreesFamily:         3,
		PyramidFamily:             9,
		MultigridFamily:           6,
		ButterflyFamily:           4,
		WrappedButterflyFamily:    4,
		CubeConnectedCyclesFamily: 3,
		ShuffleExchangeFamily:     3,
		DeBruijnFamily:            4,
		ExpanderFamily:            8,
	}
	for f, bound := range bounds {
		dim := 0
		if f.Dimensioned() {
			dim = 2
		}
		for _, size := range []int{60, 250} {
			m := Build(f, dim, size, rng)
			if got := maxDegree(m.Graph); got > bound {
				t.Errorf("%v size~%d: max degree %d > bound %d", f, size, got, bound)
			}
		}
	}
}

func TestParseFamily(t *testing.T) {
	cases := map[string]Family{
		"DeBruijn":  DeBruijnFamily,
		"debruijn":  DeBruijnFamily,
		"X-Tree":    XTreeFamily,
		"xtree":     XTreeFamily,
		"x_tree":    XTreeFamily,
		"mesh":      MeshFamily,
		"GLOBALBUS": GlobalBusFamily,
		"weak ppn":  WeakPPNFamily,
	}
	for in, want := range cases {
		got, err := ParseFamily(in)
		if err != nil || got != want {
			t.Errorf("ParseFamily(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFamily("bogus"); err == nil {
		t.Error("bogus family accepted")
	}
}

func TestDescribe(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	info, err := Describe(Mesh(2, 6), rng)
	if err != nil {
		t.Fatal(err)
	}
	if info.Procs != 36 || info.Wires != 60 {
		t.Fatalf("info %+v", info)
	}
	if info.Diameter != 10 {
		t.Fatalf("diameter = %d, want 10", info.Diameter)
	}
	if info.MinDegree != 2 || info.MaxDegree != 4 {
		t.Fatalf("degrees %d..%d", info.MinDegree, info.MaxDegree)
	}
	if info.BisectionW < 6 {
		t.Fatalf("bisection estimate %d below true 6", info.BisectionW)
	}
	s := info.String()
	for _, want := range []string{"Mesh2[36]", "processors: 36", "diameter:   10"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestDescribeCapped(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	info, err := Describe(GlobalBus(8), rng)
	if err != nil {
		t.Fatal(err)
	}
	if info.Capped != 1 {
		t.Fatalf("capped = %d, want 1 (hub)", info.Capped)
	}
	if !strings.Contains(info.String(), "capped") {
		t.Error("summary missing cap line")
	}
}

func TestStrongHypercube(t *testing.T) {
	m := StrongHypercube(4)
	if m.N() != 16 {
		t.Fatalf("N = %d", m.N())
	}
	if m.Cap(0) != -1 {
		t.Fatal("strong hypercube must be uncapacitated")
	}
	if m.Graph.E() != 32 { // n*d/2
		t.Fatalf("E = %d, want 32", m.Graph.E())
	}
}
