package netemu

// Ablation benchmarks for the design choices DESIGN.md calls out: routing
// strategy (greedy vs Valiant), contraction locality (BFS/coordinate blocks
// vs random), the congestion-aware rerouting pass, redundancy in the
// circuit emulator, and online routing vs offline LMR-style scheduling.

import (
	"math/rand"
	"testing"

	"repro/internal/embed"
	"repro/internal/emulation"
	"repro/internal/routing"
	"repro/internal/timetable"
	"repro/internal/traffic"
)

// BenchmarkAblationStrategy routes the adversarial bit-reversal permutation
// on a butterfly under both strategies. Valiant pays a ~2x hop detour to
// immunize against structured worst cases; the "ticks" metric shows the
// trade.
// randomMap assigns guest processors to host processors in random
// balanced fashion — the locality-free baseline.
func randomMap(guest, host *Machine, rng *rand.Rand) []int {
	n, m := guest.N(), host.N()
	assign := make([]int, n)
	for rank, v := range rng.Perm(n) {
		assign[v] = rank * m / n
	}
	return assign
}

// bitReversal returns the permutation that reverses each endpoint's d-bit
// string, with its fixed points (the palindromes) cycled amongst each other
// — the classic worst case for greedy routing on butterflies and meshes.
func bitReversal(d int) *traffic.Permutation {
	perm := make([]int, 1<<d)
	var fixed []int
	for i := range perm {
		for b := 0; b < d; b++ {
			if i&(1<<b) != 0 {
				perm[i] |= 1 << (d - 1 - b)
			}
		}
		if perm[i] == i {
			fixed = append(fixed, i)
		}
	}
	for k, i := range fixed {
		perm[i] = fixed[(k+1)%len(fixed)]
	}
	return traffic.NewPermutation(perm)
}

func BenchmarkAblationStrategy(b *testing.B) {
	// Bit reversal needs a power-of-two endpoint count, so run it on the
	// de Bruijn machine.
	db := NewDeBruijn(8)
	rev := bitReversal(8)
	for _, strat := range []routing.Strategy{routing.Greedy, routing.Valiant} {
		b.Run(strat.String(), func(b *testing.B) {
			eng := routing.NewEngine(db, strat)
			var ticks int
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				batch := traffic.Batch(rev, 4*db.N(), rng)
				ticks = eng.Route(batch, rng, 1).Ticks
			}
			b.ReportMetric(float64(ticks), "ticks")
		})
	}
}

// BenchmarkAblationContraction compares locality-preserving contraction
// against random assignment when emulating a big mesh on a small one. The
// "routeticks" metric shows what block locality buys.
func BenchmarkAblationContraction(b *testing.B) {
	guest := NewMesh(2, 16)
	host := NewMesh(2, 4)
	cases := []struct {
		name   string
		assign func(rng *rand.Rand) []int
	}{
		{"local", func(*rand.Rand) []int { return emulation.ContractionMap(guest, host) }},
		{"random", func(rng *rand.Rand) []int { return randomMap(guest, host, rng) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var route int
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				res := emulation.Direct(guest, host, 2, c.assign(rng), rng)
				route = res.RouteTicks
			}
			b.ReportMetric(float64(route), "routeticks")
		})
	}
}

// BenchmarkAblationImprove measures what the congestion-aware rerouting
// pass buys on the machine where it matters most — the pyramid, whose
// shortest paths all cross the apex.
func BenchmarkAblationImprove(b *testing.B) {
	m := NewPyramid(2, 8)
	tr := traffic.NewSymmetric(m.N()).Graph()
	for _, improve := range []bool{false, true} {
		name := "shortest-only"
		if improve {
			name = "rerouted"
		}
		b.Run(name, func(b *testing.B) {
			var congestion int64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				e := embed.RandomShortestPaths(m.Graph, tr, embed.IdentityMap(m.N()), rng)
				if improve {
					congestion = e.Improve(2, rng)
				} else {
					congestion = e.Congestion()
				}
			}
			b.ReportMetric(float64(congestion), "congestion")
		})
	}
}

// BenchmarkAblationRedundancy runs the circuit emulator at duplicities 1-3:
// redundancy multiplies work (inefficiency metric) without helping under
// block assignment — measured slowdown should not improve.
func BenchmarkAblationRedundancy(b *testing.B) {
	guest := NewRing(32)
	host := NewRing(8)
	for dup := 1; dup <= 3; dup++ {
		b.Run(map[int]string{1: "dup1", 2: "dup2", 3: "dup3"}[dup], func(b *testing.B) {
			var res EmulationResult
			for i := 0; i < b.N; i++ {
				res = *mustRunEmulation(b, guest, host, RunSpec{Kind: RunEmulate, Steps: 3, Mode: RunModeCircuit, Duplicity: dup, Seed: int64(i)}).EmulationResult
			}
			b.ReportMetric(res.Slowdown, "slowdown")
			b.ReportMetric(res.Inefficiency, "inefficiency")
		})
	}
}

// BenchmarkAblationScheduler compares the online packet engine against the
// offline earliest-fit and random-delay schedulers on identical traffic:
// all should land within a small constant of max(c, d).
func BenchmarkAblationScheduler(b *testing.B) {
	m := NewMesh(2, 8)
	buildPackets := func(rng *rand.Rand) ([]timetable.Packet, []traffic.Message) {
		dist := traffic.NewSymmetric(m.N())
		batch := traffic.Batch(dist, 4*m.N(), rng)
		tg := make([]traffic.Message, len(batch))
		copy(tg, batch)
		// Convert the batch into explicit paths for the offline schedulers.
		var packets []timetable.Packet
		for _, msg := range batch {
			p := m.Graph.RandomShortestPath(msg.Src, msg.Dst, rng)
			packets = append(packets, timetable.Packet{Path: p})
		}
		return packets, tg
	}
	b.Run("online", func(b *testing.B) {
		eng := routing.NewEngine(m, routing.Greedy)
		var ticks int
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(int64(i)))
			_, batch := buildPackets(rng)
			ticks = eng.Route(batch, rng, 1).Ticks
		}
		b.ReportMetric(float64(ticks), "ticks")
	})
	b.Run("offline-greedy", func(b *testing.B) {
		var span int
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(int64(i)))
			packets, _ := buildPackets(rng)
			span = timetable.Greedy(m.Graph, packets, rng).Makespan
		}
		b.ReportMetric(float64(span), "ticks")
	})
	b.Run("offline-delay", func(b *testing.B) {
		var span int
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(int64(i)))
			packets, _ := buildPackets(rng)
			span = timetable.RandomDelay(m.Graph, packets, 1.0, rng).Makespan
		}
		b.ReportMetric(float64(span), "ticks")
	})
}

// BenchmarkAblationOverlap compares sequential vs pipelined step costing —
// overlap buys up to 2x when compute and communication are balanced.
func BenchmarkAblationOverlap(b *testing.B) {
	guest := NewDeBruijn(7)
	host := NewMesh(2, 6)
	for _, pipelined := range []bool{false, true} {
		name := "sequential"
		if pipelined {
			name = "pipelined"
		}
		b.Run(name, func(b *testing.B) {
			var res EmulationResult
			for i := 0; i < b.N; i++ {
				if pipelined {
					res = *mustRunEmulation(b, guest, host, RunSpec{Kind: RunEmulate, Steps: 3, Mode: RunModePipelined, Seed: int64(i)}).EmulationResult
				} else {
					res = *mustRunEmulation(b, guest, host, RunSpec{Kind: RunEmulate, Steps: 3, Seed: int64(i)}).EmulationResult
				}
			}
			b.ReportMetric(res.Slowdown, "slowdown")
		})
	}
}

// BenchmarkAblationBetaEstimators compares the three β estimators on one
// machine: batch-regression, graph-theoretic, and open-loop steady state.
func BenchmarkAblationBetaEstimators(b *testing.B) {
	m := NewMesh(2, 8)
	b.Run("batch", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = mustRun(b, m, benchBeta(int64(i))).Beta
		}
		b.ReportMetric(v, "beta")
	})
	b.Run("graph", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = GraphBeta(m, 6, int64(i))
		}
		b.ReportMetric(v, "beta")
	})
	b.Run("steady", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = mustRun(b, m, RunSpec{Kind: RunSteadyBeta, Ticks: 250, Iters: 7, Seed: int64(i)}).Beta
		}
		b.ReportMetric(v, "beta")
	})
}

// BenchmarkAblationMapper compares the recursive-bisection mapper against
// BFS-block contraction and random assignment on a pair with no shared
// coordinate structure (de Bruijn guest, tree host).
func BenchmarkAblationMapper(b *testing.B) {
	guest := NewDeBruijn(7)
	host := NewTree(4)
	cases := []struct {
		name   string
		assign func(seed int64) []int
	}{
		{"bisection", func(seed int64) []int { return MappedContraction(guest, host, seed) }},
		{"bfs-blocks", func(int64) []int { return emulation.ContractionMap(guest, host) }},
		{"random", func(seed int64) []int {
			return randomMap(guest, host, rand.New(rand.NewSource(seed)))
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var route int
			for i := 0; i < b.N; i++ {
				res := EmulateWithAssignment(guest, host, 2, c.assign(int64(i)), int64(i))
				route = res.RouteTicks
			}
			b.ReportMetric(float64(route), "routeticks")
		})
	}
}

// BenchmarkFaultTolerance measures surviving-component size and surviving
// bandwidth for butterfly vs multibutterfly under 30% wire faults — the
// property the multibutterfly's splitters buy.
func BenchmarkFaultTolerance(b *testing.B) {
	build := []struct {
		name string
		mk   func(seed int64) *Machine
	}{
		{"Butterfly", func(int64) *Machine { return NewButterfly(5) }},
		{"Multibutterfly", func(seed int64) *Machine { return NewMultibutterfly(5, seed) }},
	}
	for _, c := range build {
		b.Run(c.name, func(b *testing.B) {
			var survival, beta float64
			for i := 0; i < b.N; i++ {
				m := c.mk(int64(i))
				d := DegradeEdges(m, 0.3, int64(i))
				survival = SurvivalFraction(d)
				s := Survivor(d)
				beta = mustRun(b, s, benchBeta(int64(i))).Beta
			}
			b.ReportMetric(survival, "survival")
			b.ReportMetric(beta, "beta")
		})
	}
}

// BenchmarkAblationLocality contrasts delivery rates under symmetric vs
// distance-decaying traffic on a linear array: local traffic sails past
// the machine's symmetric β because it never stresses the thin middle —
// the reason the theorem is stated for symmetric traffic.
func BenchmarkAblationLocality(b *testing.B) {
	m := NewLinearArray(64)
	dists := []struct {
		name string
		mk   func() TrafficDistribution
	}{
		{"symmetric", func() TrafficDistribution { return traffic.NewSymmetric(64) }},
		{"local0.5", func() TrafficDistribution { return NewLocalityTraffic(m, 0.5) }},
		{"local0.2", func() TrafficDistribution { return NewLocalityTraffic(m, 0.2) }},
	}
	for _, d := range dists {
		b.Run(d.name, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				rate = MeasureBetaUnder(m, d.mk(), benchOpts, int64(i)).Beta
			}
			b.ReportMetric(rate, "rate")
		})
	}
}
