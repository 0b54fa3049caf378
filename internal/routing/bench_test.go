package routing

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/topology"
	"repro/internal/traffic"
)

// The BenchmarkSim* family is the routing hot-path budget: Step under a
// standing load, a full open-loop run, and one routed batch. CI runs them
// with -benchtime=1x as a smoke; locally run with -benchmem before and
// after any change to the simulator inner loop (see DESIGN.md).

// standingSim returns a sim on a 2-d mesh with a standing population of
// packets, the steady-state regime the Step benchmark measures.
func standingSim(b *testing.B, side, load int) (*Sim, traffic.Distribution, *rand.Rand) {
	b.Helper()
	m := topology.Mesh(2, side)
	e := NewEngine(m, Greedy)
	rng := rand.New(rand.NewSource(1))
	s := e.NewSim(rng)
	dist := traffic.NewSymmetric(m.N())
	s.Inject(traffic.Batch(dist, load*m.N(), rng))
	// Warm the distance fields and queue arrays.
	for i := 0; i < 8; i++ {
		s.Step()
	}
	return s, dist, rng
}

func BenchmarkSimStep(b *testing.B) {
	s, dist, rng := standingSim(b, 12, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.InFlight() < 64 {
			b.StopTimer()
			s.Inject(traffic.Batch(dist, 4*144, rng))
			b.StartTimer()
		}
		s.Step()
	}
}

func BenchmarkSimStepFarthestFirst(b *testing.B) {
	m := topology.Mesh(2, 12)
	e := NewEngine(m, Greedy)
	e.Discipline = FarthestFirst
	rng := rand.New(rand.NewSource(1))
	s := e.NewSim(rng)
	dist := traffic.NewSymmetric(m.N())
	s.Inject(traffic.Batch(dist, 4*m.N(), rng))
	for i := 0; i < 8; i++ {
		s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.InFlight() < 64 {
			b.StopTimer()
			s.Inject(traffic.Batch(dist, 4*144, rng))
			b.StartTimer()
		}
		s.Step()
	}
}

// BenchmarkSimStepSharded is the scaling curve behind BENCH_routing.json:
// Step on a dim-16 weak hypercube (65536 vertices, closed-form next hop,
// no BFS tables) under a standing load, at 1/2/4/8 shards. The
// serial (shards=1) sub-benchmark is the baseline; on an 8-core machine
// the 8-shard run should be ≥3× faster. scripts/bench_routing.sh runs
// this and records the numbers.
func BenchmarkSimStepSharded(b *testing.B) {
	m := topology.WeakHypercube(16)
	dist := traffic.NewSymmetric(m.N())
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := NewEngine(m, Greedy)
			rng := rand.New(rand.NewSource(1))
			s := e.NewShardedSim(rng, shards)
			defer s.Close()
			s.Inject(traffic.Batch(dist, 4*m.N(), rng))
			// Long warmup: queue and mailbox backing arrays must reach
			// their steady-state capacities before measuring, or the
			// rows record transient append growth.
			for i := 0; i < 64; i++ {
				if s.InFlight() < m.N() {
					s.Inject(traffic.Batch(dist, m.N(), rng))
				}
				s.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.InFlight() < m.N() {
					b.StopTimer()
					s.Inject(traffic.Batch(dist, m.N(), rng))
					b.StartTimer()
				}
				s.Step()
			}
		})
	}
}

// BenchmarkSimStepMillionVertex drives Step on the dim-20 weak hypercube
// — 1,048,576 vertices, buildable only through the implicit generator
// representation — under a standing symmetric load. The extra ns/vertex
// column makes the row comparable to the 65k-vertex sharded curve above
// despite the 16× size difference.
func BenchmarkSimStepMillionVertex(b *testing.B) {
	m := topology.ImplicitWeakHypercube(20)
	n := m.N()
	e := NewEngine(m, Greedy)
	rng := rand.New(rand.NewSource(1))
	s := e.NewSim(rng)
	defer s.Close()
	dist := traffic.NewSymmetric(n)
	s.Inject(traffic.Batch(dist, n, rng))
	for i := 0; i < 4; i++ {
		s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.InFlight() < n/4 {
			b.StopTimer()
			s.Inject(traffic.Batch(dist, n/2, rng))
			b.StartTimer()
		}
		s.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/vertex")
}

func BenchmarkSimOpenLoop(b *testing.B) {
	m := topology.Mesh(2, 8)
	e := NewEngine(m, Greedy)
	dist := traffic.NewSymmetric(m.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		e.OpenLoop(dist, 4, 200, rng)
	}
}

func BenchmarkSimRoute(b *testing.B) {
	m := topology.Mesh(2, 8)
	e := NewEngine(m, Greedy)
	dist := traffic.NewSymmetric(m.N())
	rng := rand.New(rand.NewSource(1))
	batch := traffic.Batch(dist, 4*m.N(), rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Route(batch, rng)
	}
}

// BenchmarkSimStepMachines steps netemubench's four measure-cold machines
// (built as a spec with seed 0 builds them) with one message per
// processor kept in flight, topped up outside the timer before every tick
// and warmed for 32 ticks — the regime behind the benchmark's
// routing.step_us_p50.<name> rows. The hypercube and the two meshes take
// the closed-form next hop; DeBruijn-256 has no geometry and is the
// control.
func BenchmarkSimStepMachines(b *testing.B) {
	for _, bm := range []struct {
		name string
		f    topology.Family
		dim  int
		size int
	}{
		{"WeakHypercube-1024", topology.WeakHypercubeFamily, 0, 1024},
		{"Mesh-1024", topology.MeshFamily, 2, 1024},
		{"Mesh-64", topology.MeshFamily, 2, 64},
		{"DeBruijn-256", topology.DeBruijnFamily, 0, 256},
	} {
		b.Run(bm.name, func(b *testing.B) {
			m := topology.Build(bm.f, bm.dim, bm.size, rand.New(rand.NewSource(0)))
			s := NewEngine(m, Greedy).NewSim(rand.New(rand.NewSource(1)))
			defer s.Close()
			dist := traffic.NewSymmetric(m.N())
			topUp := func() {
				if k := m.N() - s.InFlight(); k > 0 {
					s.InjectSampled(dist, k)
				}
			}
			for i := 0; i < 32; i++ {
				topUp()
				s.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				topUp()
				b.StartTimer()
				s.Step()
			}
		})
	}
}
