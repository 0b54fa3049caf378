package netemu

// One benchmark per table and figure of the paper. The benches both time
// the machinery and report the reproduced quantities as custom metrics, so
// `go test -bench=. -benchmem` regenerates the paper's evaluation:
//
//	BenchmarkTable4Measured/*   — measured β per machine (msgs/tick), the
//	                              operational reproduction of Table 4
//	BenchmarkTable4Exponent/*   — fitted growth exponent of β across sizes
//	BenchmarkTable1,2,3         — symbolic max-host-size tables
//	BenchmarkFigure1            — the load/bandwidth crossover (max
//	                              efficient host size for the headline pair)
//	BenchmarkDeBruijnOnMesh     — measured emulation slowdown vs the bound
//	BenchmarkTheorem6           — operational vs graph-theoretic β ratio
//	BenchmarkBottleneckAudit    — worst quasi/symmetric rate ratio (hosts
//	                              must be bottleneck-free)

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/bandwidth"
)

// benchOpts keeps bench runtimes moderate while staying in the regression
// estimator's stable regime.
var benchOpts = MeasureOptions{LoadFactors: []int{2, 4, 8}, Trials: 2}

// benchBeta is the RunBeta spec of benchOpts.
func benchBeta(seed int64) RunSpec {
	return RunSpec{Kind: RunBeta, LoadFactors: benchOpts.LoadFactors, Trials: benchOpts.Trials, Seed: seed}
}

// table4Machines are the concrete instances measured for Table 4.
func table4Machines() []*Machine {
	return []*Machine{
		NewLinearArray(128),
		NewGlobalBus(128),
		NewTree(7),
		NewWeakPPN(128),
		NewXTree(7),
		NewMesh(2, 12),
		NewMesh(3, 5),
		NewTorus(2, 12),
		NewXGrid(2, 12),
		NewMeshOfTrees(2, 8),
		NewMultigrid(2, 8),
		NewPyramid(2, 8),
		NewButterfly(5),
		NewWrappedButterfly(5),
		NewCubeConnectedCycles(5),
		NewShuffleExchange(7),
		NewDeBruijn(7),
		NewWeakHypercube(7),
		NewMultibutterfly(5, 1),
		NewExpander(128, 1),
	}
}

// BenchmarkTable4Measured reproduces Table 4 operationally: the measured
// bandwidth of each machine is reported as the "beta" metric.
func BenchmarkTable4Measured(b *testing.B) {
	for _, m := range table4Machines() {
		b.Run(m.Name, func(b *testing.B) {
			var beta float64
			for i := 0; i < b.N; i++ {
				beta = mustRun(b, m, benchBeta(int64(i))).Beta
			}
			b.ReportMetric(beta, "beta")
			b.ReportMetric(beta/float64(m.N()), "beta/node")
		})
	}
}

// BenchmarkTable4Exponent fits the growth exponent of β across a size
// sweep per family and reports it as the "exp" metric, to compare against
// the paper's Θ-forms (mesh² → 0.5, butterfly-class → ~1 minus log, linear
// array → 0).
func BenchmarkTable4Exponent(b *testing.B) {
	cases := []struct {
		family Family
		dim    int
		sizes  []int
	}{
		{LinearArray, 0, []int{32, 64, 128, 256}},
		{Tree, 0, []int{31, 63, 127, 255}},
		{Mesh, 2, []int{64, 144, 256, 576}},
		{Mesh, 3, []int{64, 216, 512}},
		{DeBruijn, 0, []int{64, 128, 256, 512}},
		{Butterfly, 0, []int{64, 192, 448}},
		{XTree, 0, []int{31, 63, 127, 255}},
	}
	for _, c := range cases {
		name := c.family.String()
		if c.family.Dimensioned() {
			name = fmt.Sprintf("%v_%dd", c.family, c.dim)
		}
		b.Run(name, func(b *testing.B) {
			var a float64
			for i := 0; i < b.N; i++ {
				points := sweep(b, c.family, c.dim, c.sizes, int64(i))
				a, _, _, _ = bandwidth.FitGrowth(points)
			}
			b.ReportMetric(a, "exp")
		})
	}
}

func sweep(tb testing.TB, f Family, dim int, sizes []int, seed int64) []bandwidth.SweepPoint {
	var pts []bandwidth.SweepPoint
	for _, size := range sizes {
		m := NewMachine(f, dim, size, seed)
		meas := mustRun(tb, m, benchBeta(seed+int64(size)))
		pts = append(pts, bandwidth.SweepPoint{N: m.N(), Beta: meas.Beta})
	}
	return pts
}

// BenchmarkTable1 regenerates Table 1 (mesh/torus/X-grid guests).
func BenchmarkTable1(b *testing.B) {
	var rows []TableRow
	for i := 0; i < b.N; i++ {
		rows = Table1(2, 2)
	}
	b.ReportMetric(float64(len(rows)), "rows")
	if err := WriteTable(io.Discard, "Table 1", rows); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTable2 regenerates Table 2 (mesh-of-trees/multigrid/pyramid
// guests).
func BenchmarkTable2(b *testing.B) {
	var rows []TableRow
	for i := 0; i < b.N; i++ {
		rows = Table2(2, 2)
	}
	b.ReportMetric(float64(len(rows)), "rows")
}

// BenchmarkTable3 regenerates Table 3 (butterfly-class guests).
func BenchmarkTable3(b *testing.B) {
	var rows []TableRow
	for i := 0; i < b.N; i++ {
		rows = Table3(2)
	}
	b.ReportMetric(float64(len(rows)), "rows")
}

// BenchmarkFigure1 computes the Figure 1 crossover for the headline pair
// (de Bruijn guest, 2-d mesh host) at n = 4096 and reports the maximum
// efficient host size — analytically lg² n = 144 — and the slowdown there.
func BenchmarkFigure1(b *testing.B) {
	bound, err := SlowdownBound(Spec{Family: DeBruijn}, Spec{Family: Mesh, Dim: 2})
	if err != nil {
		b.Fatal(err)
	}
	var m, slow float64
	for i := 0; i < b.N; i++ {
		m, slow = bound.CrossoverPoint(4096)
	}
	b.ReportMetric(m, "maxhost")
	b.ReportMetric(slow, "slowdown")
}

// BenchmarkDeBruijnOnMesh measures the §1 running example: the slowdown of
// a direct emulation of a 256-node de Bruijn on mesh hosts at, below, and
// above the lg² n crossover. Metrics: measured slowdown and the
// measured/predicted ratio (must stay ≥ Ω(1)).
func BenchmarkDeBruijnOnMesh(b *testing.B) {
	guest := NewDeBruijn(8)
	for _, side := range []int{4, 8, 16} {
		host := NewMesh(2, side)
		b.Run(fmt.Sprintf("host%d", host.N()), func(b *testing.B) {
			var check BoundCheck
			var err error
			for i := 0; i < b.N; i++ {
				check, err = VerifyBound(guest, host, 3, int64(i))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(check.Measured, "slowdown")
			b.ReportMetric(check.Ratio, "meas/bound")
		})
	}
}

// BenchmarkTheorem6 checks the equivalence of the operational and
// graph-theoretic bandwidth definitions per machine: the ratio metric
// should sit within a constant band around 1.
func BenchmarkTheorem6(b *testing.B) {
	machines := []*Machine{
		NewMesh(2, 8),
		NewTree(6),
		NewDeBruijn(6),
		NewRing(64),
	}
	for _, m := range machines {
		b.Run(m.Name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				op := mustRun(b, m, benchBeta(int64(i))).Beta
				gt := GraphBeta(m, 6, int64(i))
				ratio = op / gt
			}
			b.ReportMetric(ratio, "op/graph")
		})
	}
}

// BenchmarkBottleneckAudit reports the worst quasi-symmetric/symmetric
// rate ratio per host machine — the paper's bottleneck-freeness condition
// demands it stay O(1).
func BenchmarkBottleneckAudit(b *testing.B) {
	machines := []*Machine{
		NewMesh(2, 8),
		NewTree(6),
		NewXTree(6),
		NewLinearArray(64),
	}
	for _, m := range machines {
		b.Run(m.Name, func(b *testing.B) {
			var worst float64
			for i := 0; i < b.N; i++ {
				worst = AuditBottleneck(m, 2, benchOpts, int64(i)).WorstRatio
			}
			b.ReportMetric(worst, "worstratio")
		})
	}
}

// BenchmarkEmulationMatrix sweeps representative guest/host family pairs
// and reports the measured-slowdown-to-bound ratio for each, the aggregate
// check that the Efficient Emulation Theorem's direction holds everywhere.
func BenchmarkEmulationMatrix(b *testing.B) {
	pairs := []struct {
		name        string
		guest, host *Machine
	}{
		{"Mesh2-on-LinearArray", NewMesh(2, 8), NewLinearArray(16)},
		{"Mesh2-on-Tree", NewMesh(2, 8), NewTree(4)},
		{"Mesh2-on-Mesh2", NewMesh(2, 8), NewMesh(2, 4)},
		{"DeBruijn-on-Mesh2", NewDeBruijn(6), NewMesh(2, 4)},
		{"DeBruijn-on-XTree", NewDeBruijn(6), NewXTree(4)},
		{"Butterfly-on-Mesh2", NewButterfly(4), NewMesh(2, 4)},
		{"Mesh2-on-Butterfly", NewMesh(2, 8), NewButterfly(4)},
		{"CCC-on-LinearArray", NewCubeConnectedCycles(4), NewLinearArray(16)},
		{"XTree-on-Tree", NewXTree(6), NewTree(4)},
		{"XTree-on-LinearArray", NewXTree(6), NewLinearArray(16)},
	}
	for _, p := range pairs {
		b.Run(p.name, func(b *testing.B) {
			var check BoundCheck
			var err error
			for i := 0; i < b.N; i++ {
				check, err = VerifyBound(p.guest, p.host, 2, int64(i))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(check.Measured, "slowdown")
			b.ReportMetric(check.Ratio, "meas/bound")
		})
	}
}

// BenchmarkRouting times the raw packet simulator per machine class —
// the substrate all measurements run on.
func BenchmarkRouting(b *testing.B) {
	machines := []*Machine{
		NewMesh(2, 16),
		NewDeBruijn(8),
		NewButterfly(6),
	}
	for _, m := range machines {
		b.Run(m.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MeasurePermutation(m, 4, int64(i))
			}
		})
	}
}

// BenchmarkWorkloadEmulation runs the flood-max leader election under
// emulation on hosts of decreasing power — a real program with a
// correctness oracle (states must match the native run), so the slowdown
// metric is guaranteed to be pure communication/load cost.
func BenchmarkWorkloadEmulation(b *testing.B) {
	guest := NewDeBruijn(7)
	p := NewFloodMax()
	native := RunProgram(p, guest, 7)
	hosts := []*Machine{
		NewDeBruijn(7),
		NewMesh(2, 11),
		NewMesh(2, 6),
		NewLinearArray(36),
	}
	for _, host := range hosts {
		b.Run(host.Name, func(b *testing.B) {
			var res ProgramResult
			for i := 0; i < b.N; i++ {
				res = RunProgramEmulated(p, guest, host, 7, int64(i))
			}
			for v := range native {
				if res.States[v] != native[v] {
					b.Fatalf("emulation diverged at processor %d", v)
				}
			}
			b.ReportMetric(res.Slowdown, "slowdown")
		})
	}
}

// BenchmarkTable4Lambda validates Table 4's λ column: the fitted growth
// exponent of the measured diameter across a size sweep — 1 for the linear
// array, 1/k for k-dimensional meshes, ~0 (log) for the tree-like and
// hypercubic families.
func BenchmarkTable4Lambda(b *testing.B) {
	cases := []struct {
		family Family
		dim    int
		sizes  []int
	}{
		{LinearArray, 0, []int{32, 64, 128, 256}},
		{Mesh, 2, []int{64, 144, 256, 576}},
		{Mesh, 3, []int{64, 216, 512}},
		{Tree, 0, []int{31, 63, 127, 255}},
		{DeBruijn, 0, []int{64, 128, 256, 512}},
		{Pyramid, 2, []int{21, 85, 341}},
	}
	for _, c := range cases {
		name := c.family.String()
		if c.family.Dimensioned() {
			name = fmt.Sprintf("%v_%dd", c.family, c.dim)
		}
		b.Run(name, func(b *testing.B) {
			var a float64
			for i := 0; i < b.N; i++ {
				var pts []bandwidth.SweepPoint
				for _, size := range c.sizes {
					m := NewMachine(c.family, c.dim, size, int64(i))
					diam, err := m.Graph.Diameter()
					if err != nil {
						b.Fatal(err)
					}
					pts = append(pts, bandwidth.SweepPoint{N: m.N(), Beta: float64(diam)})
				}
				a, _, _, _ = bandwidth.FitGrowth(pts)
			}
			b.ReportMetric(a, "exp")
		})
	}
}

// BenchmarkAlgorithmPatterns reproduces the conclusion's extension:
// Lemma 8 time bounds and measured delivery times for classic algorithm
// patterns on equal-size hosts.
func BenchmarkAlgorithmPatterns(b *testing.B) {
	pats := []Pattern{
		NewFFTPattern(6),
		NewBitonicPattern(6),
		NewPrefixPattern(6),
		NewAllToAllPattern(64),
	}
	hosts := []*Machine{
		NewDeBruijn(6),
		NewMesh(2, 8),
		NewLinearArray(64),
	}
	for _, p := range pats {
		for _, h := range hosts {
			b.Run(p.Name+"-on-"+h.Name, func(b *testing.B) {
				var ticks int
				var bound float64
				for i := 0; i < b.N; i++ {
					bound = PatternBound(p, h, int64(i))
					ticks = MeasurePattern(p, h, int64(i))
				}
				b.ReportMetric(bound, "bound")
				b.ReportMetric(float64(ticks), "ticks")
			})
		}
	}
}

// BenchmarkLatencyVsLoad traces the classic open-loop latency curve: mean
// delivery latency at increasing fractions of the saturation rate. Latency
// stays near the unloaded distance until ~75% load, then climbs steeply —
// the queueing-theoretic face of β as a capacity.
func BenchmarkLatencyVsLoad(b *testing.B) {
	m := NewMesh(2, 8)
	sat := mustRun(b, m, RunSpec{Kind: RunSteadyBeta, Ticks: 300, Iters: 8, Seed: 1}).Beta
	for _, frac := range []float64{0.25, 0.5, 0.75, 0.9} {
		b.Run(fmt.Sprintf("load%.0f%%", frac*100), func(b *testing.B) {
			var mean float64
			var p95 int
			for i := 0; i < b.N; i++ {
				res := openLoopAt(b, m, sat*frac, int64(i))
				mean = res.MeanLatency
				p95 = res.P95Latency
			}
			b.ReportMetric(mean, "latency")
			b.ReportMetric(float64(p95), "p95")
		})
	}
}

func openLoopAt(tb testing.TB, m *Machine, rate float64, seed int64) OpenLoopResult {
	if rate < 0.1 {
		rate = 0.1
	}
	return *mustRun(tb, m, RunSpec{Kind: RunOpenLoop, Rate: rate, Ticks: 400, Seed: seed}).OpenLoop
}
