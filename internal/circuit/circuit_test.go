package circuit

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/multigraph"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func ringGraph(n int) *multigraph.Multigraph {
	g := multigraph.New(n)
	for i := 0; i < n; i++ {
		g.AddSimpleEdge(i, (i+1)%n)
	}
	return g
}

// arcCount returns the total number of arcs of c.
func arcCount(c *Circuit) int {
	total := 0
	for i := 0; i < c.Steps; i++ {
		total += len(c.ArcsFrom(i))
	}
	return total
}

// simpleDegree returns the number of distinct neighbours of u.
func simpleDegree(g *multigraph.Multigraph, u int) int { return len(g.Neighbors(u)) }

func TestNonRedundantStructure(t *testing.T) {
	g := ringGraph(6)
	c := NonRedundant(g, 4)
	if c.Levels() != 5 {
		t.Fatalf("levels = %d, want 5", c.Levels())
	}
	if c.NodeCount() != 30 {
		t.Fatalf("nodes = %d, want 30", c.NodeCount())
	}
	// Per level transition: each vertex has identity + 2 neighbours = 3
	// arcs; 6 vertices * 4 transitions = 72.
	if arcCount(c) != 72 {
		t.Fatalf("arcs = %d, want 72", arcCount(c))
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !c.Efficient(1.0) {
		t.Fatal("duplicity-1 circuit must be 1-efficient")
	}
	if c.Duplicity(3, 2) != 1 {
		t.Fatalf("duplicity = %d, want 1", c.Duplicity(3, 2))
	}
}

func TestRedundantStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := ringGraph(5)
	c := Redundant(g, 3, 3, rng)
	if c.NodeCount() != 5*4*3 {
		t.Fatalf("nodes = %d, want 60", c.NodeCount())
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if c.Duplicity(2, 1) != 3 {
		t.Fatalf("duplicity = %d, want 3", c.Duplicity(2, 1))
	}
	if !c.Efficient(3.0) {
		t.Fatal("duplicity-3 circuit should be 3-efficient")
	}
	if c.Efficient(2.0) {
		t.Fatal("duplicity-3 circuit must not be 2-efficient")
	}
}

func TestValidateCatchesMissingInput(t *testing.T) {
	g := ringGraph(4)
	c := NonRedundant(g, 2)
	// Drop one routing arc: node (1, 1) loses its input from vertex 0.
	arcs := c.arcs[0]
	for i, a := range arcs {
		if !a.Identity && a.From.Vertex == 0 && a.To.Vertex == 1 {
			c.arcs[0] = append(arcs[:i:i], arcs[i+1:]...)
			break
		}
	}
	if err := c.Validate(); err == nil {
		t.Fatal("missing input not detected")
	}
}

func TestValidateCatchesBadArcLevels(t *testing.T) {
	g := ringGraph(4)
	c := NonRedundant(g, 2)
	c.arcs[0] = append(c.arcs[0], Arc{
		From: Node{Vertex: 0, Level: 0}, To: Node{Vertex: 0, Level: 2}, Identity: true,
	})
	if err := c.Validate(); err == nil {
		t.Fatal("cross-level arc not detected")
	}
}

func TestValidateCatchesNonGuestRouting(t *testing.T) {
	g := ringGraph(6)
	c := NonRedundant(g, 2)
	c.arcs[0] = append(c.arcs[0], Arc{
		From: Node{Vertex: 0, Level: 0}, To: Node{Vertex: 3, Level: 1},
	})
	if err := c.Validate(); err == nil {
		t.Fatal("non-edge routing arc not detected")
	}
}

func TestCommunicationGraph(t *testing.T) {
	g := ringGraph(4)
	c := NonRedundant(g, 2)
	comm, idx := c.CommunicationGraph()
	if comm.N() != 12 {
		t.Fatalf("comm nodes = %d, want 12", comm.N())
	}
	if int(comm.E()) != arcCount(c) {
		t.Fatalf("comm edges = %d, want %d", comm.E(), arcCount(c))
	}
	if len(idx) != 12 {
		t.Fatalf("index size = %d", len(idx))
	}
	if !comm.Connected() {
		t.Fatal("communication graph should be connected")
	}
}

func TestBuildGammaRing(t *testing.T) {
	g := ringGraph(8) // diameter 4
	steps := 9
	c := NonRedundant(g, steps)
	gamma, err := BuildGamma(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if gamma.MaxPairMult != 1 {
		t.Fatalf("max pair multiplicity = %d, want 1 (K_{r,1})", gamma.MaxPairMult)
	}
	if gamma.SNodes != 8*(steps-4) {
		t.Fatalf("S-nodes = %d, want %d", gamma.SNodes, 8*(steps-4))
	}
	// γ must be dense: Ω(n² t²) edges over Θ(nt) vertices. Check a
	// concrete lower bound: at least (n-1) Q-edges per S-node.
	if gamma.EdgeCount() < int64(gamma.SNodes)*7 {
		t.Fatalf("too few gamma edges: %d", gamma.EdgeCount())
	}
	if gamma.Congestion <= 0 {
		t.Fatal("no congestion recorded")
	}
	if gamma.Beta() <= 0 {
		t.Fatal("zero witness bandwidth")
	}
}

// Lemma 9's conclusion: for t = (1+Θ(1))·λ(G) and cones of depth ≈ λ(G),
// the witness satisfies β(Φ, γ) = Ω(t·β(G)). On the ring λ = Θ(n) and
// β = Θ(1), so doubling the ring (and with it t = 2·diameter) should double
// the witness bandwidth. (Longer computations are handled by the theorem's
// blocking argument, not by deeper witnesses.)
func TestGammaBetaScalesWithLambda(t *testing.T) {
	betaAt := func(n int) float64 {
		g := ringGraph(n)
		diam := n / 2
		c := NonRedundant(g, 2*diam)
		gamma, err := BuildGamma(c, diam)
		if err != nil {
			t.Fatal(err)
		}
		return gamma.Beta()
	}
	b16, b32 := betaAt(16), betaAt(32)
	ratio := b32 / b16
	if ratio < 1.4 || ratio > 3.0 {
		t.Fatalf("witness beta scaled by %.2f when ring (and t=Θ(λ)) doubled; want ~2", ratio)
	}
}

// The witness survives on redundant circuits too: the lower bound must hold
// no matter how cleverly the emulation replicates work.
func TestGammaOnRedundantCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := ringGraph(6)
	c := Redundant(g, 7, 2, rng)
	gamma, err := BuildGamma(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if gamma.MaxPairMult != 1 {
		t.Fatalf("max pair mult = %d", gamma.MaxPairMult)
	}
	if gamma.Beta() <= 0 {
		t.Fatal("zero witness bandwidth")
	}
}

func TestBuildGammaRejectsShallow(t *testing.T) {
	g := ringGraph(6)
	c := NonRedundant(g, 3)
	if _, err := BuildGamma(c, 3); err == nil {
		t.Fatal("shallow circuit accepted")
	}
	if _, err := BuildGamma(c, 0); err == nil {
		t.Fatal("zero cone depth accepted")
	}
}

// γ is a member of K_{r,1} in the paper's sense: r = Θ(nt) vertices
// carrying Θ(n²t²)... on small instances we check pair multiplicity 1 and
// quadratic scaling in n of the per-window edge count.
func TestGammaKrsMembership(t *testing.T) {
	g := ringGraph(10)
	c := NonRedundant(g, 11)
	gamma, err := BuildGamma(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Restrict to the vertices γ actually touches and check multiplicity.
	touched := 0
	for v := 0; v < gamma.Traffic.N(); v++ {
		if gamma.Traffic.Degree(v) > 0 {
			touched++
		}
	}
	if touched < 10*6 { // at least S-nodes plus Q-nodes
		t.Fatalf("gamma touches only %d nodes", touched)
	}
	if err := traffic.KrsMembership(gamma.Traffic, 1, 0.0001); err != nil {
		t.Fatalf("gamma not in K: %v", err)
	}
}

func TestBalancedRandomAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := BalancedRandomAssignment(100, 7, rng)
	if len(a) != 100 {
		t.Fatalf("len = %d", len(a))
	}
	counts := make([]int, 7)
	for _, p := range a {
		counts[p]++
	}
	if load := slices.Max(counts); load != 15 { // ceil(100/7)
		t.Fatalf("max load = %d, want 15", load)
	}
}

func TestCollapseTrafficKeepsCrossPairs(t *testing.T) {
	tr := multigraph.New(4)
	tr.AddEdge(0, 1, 5) // same supervertex
	tr.AddEdge(0, 2, 3) // crosses
	tr.AddEdge(1, 3, 2) // crosses
	a := Assignment{0, 0, 1, 1}
	out := CollapseTraffic(tr, a, 2)
	if out.E() != 5 {
		t.Fatalf("collapsed traffic E = %d, want 5", out.E())
	}
	if out.Multiplicity(0, 1) != 5 {
		t.Fatalf("mult = %d", out.Multiplicity(0, 1))
	}
}

// Lemma 11: collapsing the witness onto m >> 1 processors with balanced
// random assignment keeps Ω of the γ-edges between distinct processors.
func TestCollapsePreservesGammaMass(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := ringGraph(8)
	c := NonRedundant(g, 9)
	gamma, err := BuildGamma(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := BalancedRandomAssignment(gamma.Traffic.N(), 8, rng)
	xi := CollapseTraffic(gamma.Traffic, a, 8)
	if xi.E() < gamma.EdgeCount()/2 {
		t.Fatalf("collapse lost too much: %d of %d edges", xi.E(), gamma.EdgeCount())
	}
}

// Property: non-redundant circuits over random connected guests always
// validate, are 1-efficient, and their communication graphs have exactly
// (deg(u)+1) arcs per node per transition.
func TestPropertyNonRedundantValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := topology.Build(topology.DeBruijnFamily, 0, 8+rng.Intn(16), rng)
		steps := 2 + rng.Intn(4)
		c := NonRedundant(m.Graph, steps)
		if err := c.Validate(); err != nil {
			return false
		}
		if !c.Efficient(1.0) {
			return false
		}
		wantArcs := 0
		for u := 0; u < m.Graph.N(); u++ {
			wantArcs += simpleDegree(m.Graph, u) + 1
		}
		return arcCount(c) == wantArcs*steps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: redundant circuits validate for any duplicity.
func TestPropertyRedundantValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := ringGraph(4 + rng.Intn(8))
		c := Redundant(g, 2+rng.Intn(3), 1+rng.Intn(4), rng)
		return c.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// The γ-witness construction must work on every fixed-degree guest shape,
// not just rings: meshes, de Bruijn graphs, trees.
func TestGammaAcrossGuestFamilies(t *testing.T) {
	guests := []struct {
		m    *topology.Machine
		cone int
	}{
		{topology.Mesh(2, 4), 3},
		{topology.DeBruijn(4), 4},
		{topology.Tree(4), 4},
		{topology.CubeConnectedCycles(3), 4},
	}
	for _, g := range guests {
		c := NonRedundant(g.m.Graph, 2*g.cone+1)
		gamma, err := BuildGamma(c, g.cone)
		if err != nil {
			t.Fatalf("%s: %v", g.m.Name, err)
		}
		if gamma.MaxPairMult != 1 {
			t.Errorf("%s: pair multiplicity %d", g.m.Name, gamma.MaxPairMult)
		}
		if gamma.Beta() <= 0 {
			t.Errorf("%s: zero witness bandwidth", g.m.Name)
		}
		if gamma.SNodes != g.m.N()*(c.Steps-g.cone) {
			t.Errorf("%s: S-nodes %d, want %d", g.m.Name, gamma.SNodes, g.m.N()*(c.Steps-g.cone))
		}
	}
}
