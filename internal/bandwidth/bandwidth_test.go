package bandwidth

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/growth"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// symmetricBeta measures β(M) under the symmetric distribution — the
// paper's headline quantity — on a fresh engine.
func symmetricBeta(m *topology.Machine, opts MeasureOptions, rng *rand.Rand) Measurement {
	return MeasureBeta(routing.NewEngine(m, opts.Strategy), traffic.NewSymmetric(m.N()), opts, rng)
}

func TestTable4KnownEntries(t *testing.T) {
	cases := []struct {
		f         topology.Family
		dim       int
		beta, lam string
	}{
		{topology.LinearArrayFamily, 0, "1", "n"},
		{topology.GlobalBusFamily, 0, "1", "1"},
		{topology.TreeFamily, 0, "1", "lg n"},
		{topology.WeakPPNFamily, 0, "1", "lg n"},
		{topology.XTreeFamily, 0, "lg n", "lg n"},
		{topology.MeshFamily, 2, "n^{1/2}", "n^{1/2}"},
		{topology.MeshFamily, 3, "n^{2/3}", "n^{1/3}"},
		{topology.TorusFamily, 2, "n^{1/2}", "n^{1/2}"},
		{topology.XGridFamily, 2, "n^{1/2}", "n^{1/2}"},
		{topology.MeshOfTreesFamily, 2, "n^{1/2}", "lg n"},
		{topology.MultigridFamily, 2, "n^{1/2}", "lg n"},
		{topology.PyramidFamily, 2, "n^{1/2}", "lg n"},
		{topology.ButterflyFamily, 0, "n lg^{-1} n", "lg n"},
		{topology.DeBruijnFamily, 0, "n lg^{-1} n", "lg n"},
		{topology.CubeConnectedCyclesFamily, 0, "n lg^{-1} n", "lg n"},
		{topology.ShuffleExchangeFamily, 0, "n lg^{-1} n", "lg n"},
		{topology.WeakHypercubeFamily, 0, "n lg^{-1} n", "lg n"},
		{topology.MultibutterflyFamily, 0, "n lg^{-1} n", "lg n"},
		{topology.ExpanderFamily, 0, "n lg^{-1} n", "lg n"},
	}
	for _, c := range cases {
		a, err := Table4(c.f, c.dim)
		if err != nil {
			t.Fatalf("%v dim %d: %v", c.f, c.dim, err)
		}
		if got := a.Beta.String(); got != c.beta {
			t.Errorf("%v dim %d: beta = %q, want %q", c.f, c.dim, got, c.beta)
		}
		if got := a.Lambda.String(); got != c.lam {
			t.Errorf("%v dim %d: lambda = %q, want %q", c.f, c.dim, got, c.lam)
		}
	}
}

func TestTable4NeedsDim(t *testing.T) {
	if _, err := Table4(topology.MeshFamily, 0); err == nil {
		t.Fatal("Mesh without dimension accepted")
	}
	if _, err := Table4(topology.Family(99), 0); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestPerNodeBeta(t *testing.T) {
	a, err := Table4(topology.DeBruijnFamily, 0)
	if err != nil {
		t.Fatal(err)
	}
	pn := a.PerNodeBeta()
	if pn.Pow.Sign() != 0 || pn.LogPow != growth.Int(-1) {
		t.Fatalf("per-node beta = %v, want lg^{-1} n", pn)
	}
}

func TestMeasureBetaLinearArrayConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	opts := MeasureOptions{LoadFactors: []int{4}, Trials: 2}
	small := symmetricBeta(topology.LinearArray(32), opts, rng)
	big := symmetricBeta(topology.LinearArray(128), opts, rng)
	// β(linear array) = Θ(1): quadrupling the machine should not much
	// change the rate.
	if small.Beta <= 0 || big.Beta <= 0 {
		t.Fatalf("rates: %v %v", small.Beta, big.Beta)
	}
	ratio := big.Beta / small.Beta
	if ratio > 2.5 || ratio < 0.4 {
		t.Fatalf("array beta scaled by %.2f across 4x size; want ~1", ratio)
	}
}

func TestMeasureBetaMeshGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	opts := MeasureOptions{LoadFactors: []int{4, 8}, Trials: 2}
	small := symmetricBeta(topology.Mesh(2, 6), opts, rng) // n=36
	big := symmetricBeta(topology.Mesh(2, 12), opts, rng)  // n=144
	// β(mesh²) = Θ(√n): 4x size => ~2x rate.
	ratio := big.Beta / small.Beta
	if ratio < 1.4 || ratio > 3.0 {
		t.Fatalf("mesh beta scaled by %.2f across 4x size; want ~2", ratio)
	}
}

func TestMeasureBetaGlobalBusIsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	opts := MeasureOptions{LoadFactors: []int{4}, Trials: 2}
	meas := symmetricBeta(topology.GlobalBus(64), opts, rng)
	if meas.Beta < 0.5 || meas.Beta > 1.5 {
		t.Fatalf("bus beta = %.3f, want ~1", meas.Beta)
	}
}

func TestMeasureBetaRespectsUpperBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	opts := MeasureOptions{LoadFactors: []int{2, 4, 8}, Trials: 2}
	for _, m := range []*topology.Machine{
		topology.Mesh(2, 6),
		topology.Tree(5),
		topology.DeBruijn(6),
		topology.XTree(5),
	} {
		meas := symmetricBeta(m, opts, rng)
		b := UpperBounds(m, 4, rng)
		if meas.Beta > b.Flux*1.05 {
			t.Errorf("%s: measured %.2f exceeds flux bound %.2f", m.Name, meas.Beta, b.Flux)
		}
		if meas.Beta <= 0 {
			t.Errorf("%s: zero rate", m.Name)
		}
	}
}

func TestBisectionBoundBindsOnTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := topology.Tree(6) // 63 nodes, bisection Θ(1)
	b := UpperBounds(m, 4, rng)
	if b.Bisection > 8 {
		t.Fatalf("tree bisection bound = %.1f, want small constant", b.Bisection)
	}
	if b.Flux < b.Bisection {
		t.Fatalf("flux bound below bisection bound (%v)", b)
	}
	meas := symmetricBeta(m, MeasureOptions{LoadFactors: []int{6}, Trials: 1}, rng)
	if meas.Beta > b.Bisection*1.1 {
		t.Fatalf("measured %.2f above bisection bound %.2f", meas.Beta, b.Bisection)
	}
}

func TestMeasureMismatchedDistPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MeasureBeta(routing.NewEngine(topology.Ring(8), routing.Greedy), traffic.NewSymmetric(9), MeasureOptions{}, rng)
}

func TestGraphTheoreticBetaMatchesMeasured(t *testing.T) {
	// Theorem 6: the operational rate and E(T)/C(M,T) agree within
	// constants.
	rng := rand.New(rand.NewSource(7))
	m := topology.Mesh(2, 6)
	gt := GraphTheoreticBeta(m, traffic.NewSymmetric(m.N()), 6, rng)
	meas := symmetricBeta(m, MeasureOptions{LoadFactors: []int{6}, Trials: 2}, rng)
	if gt <= 0 || meas.Beta <= 0 {
		t.Fatalf("rates: %v %v", gt, meas.Beta)
	}
	ratio := meas.Beta / gt
	if ratio < 0.2 || ratio > 5 {
		t.Fatalf("operational %.2f vs graph-theoretic %.2f: ratio %.2f out of Θ(1) range",
			meas.Beta, gt, ratio)
	}
}

func TestMeasureLambda(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	diam, avg := MeasureLambda(topology.LinearArray(50), rng)
	if diam != 49 {
		t.Fatalf("diameter = %d, want 49", diam)
	}
	if avg < 10 || avg > 25 { // exact mean distance on a path is (n+1)/3
		t.Fatalf("avg distance = %.1f, want ~17", avg)
	}
}

func TestSweepAndFitMeshExponent(t *testing.T) {
	opts := MeasureOptions{LoadFactors: []int{2, 4, 8}, Trials: 2}
	rng := rand.New(rand.NewSource(9))
	var points []SweepPoint
	for _, side := range []int{6, 8, 12, 16, 20} {
		m := topology.Mesh(2, side)
		points = append(points, SweepPoint{N: m.N(), Beta: symmetricBeta(m, opts, rng).Beta})
	}
	a, _, _, rmse := FitGrowth(points)
	// Expect exponent ~1/2 for the 2-d mesh.
	if math.Abs(a-0.5) > 0.2 {
		t.Fatalf("fitted mesh exponent %.3f, want ~0.5 (rmse %.3f)", a, rmse)
	}
}

func TestFitGrowthRecoversPlantedLaw(t *testing.T) {
	// v = 3 * n^0.75 * lg n exactly.
	var pts []SweepPoint
	for _, n := range []int{16, 64, 256, 1024, 4096} {
		v := 3 * math.Pow(float64(n), 0.75) * math.Log2(float64(n))
		pts = append(pts, SweepPoint{N: n, Beta: v})
	}
	a, b, c, rmse := FitGrowth(pts)
	if math.Abs(a-0.75) > 0.01 || math.Abs(b-1) > 0.05 || rmse > 0.01 {
		t.Fatalf("fit a=%.3f b=%.3f c=%.3f rmse=%.4f, want 0.75, 1, *, ~0", a, b, c, rmse)
	}
}

func TestFitGrowthTooFewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	FitGrowth([]SweepPoint{{N: 4, Beta: 1}, {N: 8, Beta: 2}})
}

func TestAuditBottleneckMesh(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	opts := MeasureOptions{LoadFactors: []int{4}, Trials: 1}
	rep := AuditBottleneck(topology.Mesh(2, 6), 3, opts, rng)
	if !rep.Free(3.0) {
		t.Fatalf("mesh flagged as bottlenecked: worst ratio %.2f", rep.WorstRatio)
	}
	if len(rep.Trials) != 3 {
		t.Fatalf("trials = %d", len(rep.Trials))
	}
	for _, tr := range rep.Trials {
		if tr.Rate < 0 || tr.SubsetSize < 4 || tr.Pairs < 1 {
			t.Fatalf("bad trial %+v", tr)
		}
	}
}

func TestAuditBottleneckTree(t *testing.T) {
	// The tree is bottleneck-free per the paper (the root limits both
	// symmetric and quasi-symmetric traffic alike).
	rng := rand.New(rand.NewSource(11))
	opts := MeasureOptions{LoadFactors: []int{4}, Trials: 1}
	rep := AuditBottleneck(topology.Tree(5), 3, opts, rng)
	if !rep.Free(4.0) {
		t.Fatalf("tree worst ratio %.2f", rep.WorstRatio)
	}
}

func TestMeasureWithValiant(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	opts := MeasureOptions{LoadFactors: []int{4}, Trials: 1, Strategy: routing.Valiant}
	meas := symmetricBeta(topology.Butterfly(3), opts, rng)
	if meas.Beta <= 0 {
		t.Fatal("zero rate under valiant")
	}
}

// Greedy shortest-path routing funnels pyramid traffic through the apex;
// the congestion-aware improved estimate must recover a substantially
// higher rate (the paper's β is a supremum over routings).
func TestImprovedGraphBetaUnblocksPyramid(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := topology.Pyramid(2, 8)
	dist := traffic.NewSymmetric(m.N())
	plain := GraphTheoreticBeta(m, dist, 3, rng)
	improved := ImprovedGraphBeta(m, dist, 3, rng)
	if improved < 1.5*plain {
		t.Fatalf("improved beta %.1f not much above shortest-path beta %.1f", improved, plain)
	}
}

// The improved estimate shows the pyramid's mesh-grade Θ(√n) scaling.
func TestImprovedGraphBetaPyramidScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	b1 := ImprovedGraphBeta(topology.Pyramid(2, 4), traffic.NewSymmetric(21), 3, rng)
	b2 := ImprovedGraphBeta(topology.Pyramid(2, 8), traffic.NewSymmetric(85), 3, rng)
	ratio := b2 / b1
	// 4x size -> ~2x bandwidth.
	if ratio < 1.5 || ratio > 3.0 {
		t.Fatalf("pyramid improved beta scaled by %.2f across 4x size; want ~2", ratio)
	}
}

func TestSteadyStateBetaOrdersMachines(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	arr := SteadyStateBeta(routing.NewEngine(topology.LinearArray(64), routing.Greedy), 250, 7, 1, rng)
	mesh := SteadyStateBeta(routing.NewEngine(topology.Mesh(2, 8), routing.Greedy), 250, 7, 1, rng)
	if arr <= 0 || mesh <= 0 {
		t.Fatalf("rates %v %v", arr, mesh)
	}
	if mesh < 3*arr {
		t.Fatalf("steady mesh %v not well above array %v", mesh, arr)
	}
}

// Lemma 10's consistency across Table 4: for fixed-degree machines,
// λ(G) <= O(E(G)/β(G)) — asymptotically, λ·β grows no faster than n
// (E = Θ(n) for fixed degree).
// cmpGrowth compares f and g asymptotically as n -> infinity: -1 if
// f = o(g), +1 if g = o(f), and 0 if f = Θ(g).
func cmpGrowth(f, g growth.Func) int {
	if c := f.Pow.Cmp(g.Pow); c != 0 {
		return c
	}
	return f.LogPow.Cmp(g.LogPow)
}

func TestLemma10LambdaBetaAtMostLinear(t *testing.T) {
	linear := growth.Poly(1, 1)
	for _, f := range topology.Families() {
		dim := 0
		if f.Dimensioned() {
			dim = 2
		}
		a, err := Table4(f, dim)
		if err != nil {
			t.Fatal(err)
		}
		if bound := linear.Div(a.Beta); cmpGrowth(a.Lambda, bound) > 0 {
			t.Errorf("%v: λ = %v grows faster than n/β = %v, violating Lemma 10", f, a.Lambda, bound)
		}
	}
}

// The weak/strong hypercube contrast: removing the one-port restriction
// multiplies the measured delivery rate by roughly the degree.
func TestWeakVsStrongHypercube(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	opts := MeasureOptions{LoadFactors: []int{2, 4, 8}, Trials: 2}
	weak := symmetricBeta(topology.WeakHypercube(6), opts, rng)
	strong := symmetricBeta(topology.StrongHypercube(6), opts, rng)
	if strong.Beta < 2*weak.Beta {
		t.Fatalf("strong %.1f not well above weak %.1f", strong.Beta, weak.Beta)
	}
}
