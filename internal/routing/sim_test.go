package routing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/measure"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func TestSimIncrementalInjection(t *testing.T) {
	m := topology.LinearArray(4)
	e := NewEngine(m, Greedy)
	rng := rand.New(rand.NewSource(1))
	s := e.NewSim(rng)
	s.Inject([]traffic.Message{{Src: 0, Dst: 3}})
	if s.InFlight() != 1 || s.Injected() != 1 {
		t.Fatalf("counters wrong: %d/%d", s.InFlight(), s.Injected())
	}
	s.Step()
	s.Step()
	// Inject a second message mid-flight.
	s.Inject([]traffic.Message{{Src: 3, Dst: 2}})
	for s.InFlight() > 0 {
		if s.Now() > 100 {
			t.Fatal("no progress")
		}
		s.Step()
	}
	if s.Delivered() != 2 {
		t.Fatalf("delivered %d, want 2", s.Delivered())
	}
	// First message latency 3, second 1: mean 2.
	if got := s.MeanLatency(); got != 2 {
		t.Fatalf("mean latency = %v, want 2", got)
	}
}

func TestSimLatencyAccountsWaiting(t *testing.T) {
	// Two messages over one wire: latencies 1 and 2.
	m := topology.LinearArray(2)
	e := NewEngine(m, Greedy)
	rng := rand.New(rand.NewSource(2))
	s := e.NewSim(rng)
	s.Inject([]traffic.Message{{Src: 0, Dst: 1}, {Src: 0, Dst: 1}})
	for s.InFlight() > 0 {
		s.Step()
	}
	if got := s.MeanLatency(); got != 1.5 {
		t.Fatalf("mean latency = %v, want 1.5", got)
	}
}

func TestOpenLoopLowRateIsStable(t *testing.T) {
	m := topology.Mesh(2, 6)
	e := NewEngine(m, Greedy)
	rng := rand.New(rand.NewSource(3))
	res, _ := e.OpenLoop(traffic.NewSymmetric(m.N()), rng, OpenLoopOptions{Rate: 2.0, Ticks: 400})
	if !res.Stable {
		t.Fatalf("rate 2 on a 36-mesh should be stable: %+v", res)
	}
	// Throughput should match the injection rate when stable.
	if res.Throughput < 1.5 || res.Throughput > 2.5 {
		t.Fatalf("throughput %v at rate 2", res.Throughput)
	}
	if res.MeanLatency < 1 {
		t.Fatalf("latency %v implausibly low", res.MeanLatency)
	}
}

func TestOpenLoopOverloadIsUnstable(t *testing.T) {
	// A linear array delivers Θ(1) messages/tick; injecting 20/tick must
	// blow up the backlog.
	m := topology.LinearArray(32)
	e := NewEngine(m, Greedy)
	rng := rand.New(rand.NewSource(4))
	res, _ := e.OpenLoop(traffic.NewSymmetric(m.N()), rng, OpenLoopOptions{Rate: 20, Ticks: 200})
	if res.Stable {
		t.Fatalf("rate 20 on an array reported stable: %+v", res)
	}
	if res.Backlog < 500 {
		t.Fatalf("backlog %d too small for a 4x overload", res.Backlog)
	}
}

func TestOpenLoopBadParamsPanic(t *testing.T) {
	m := topology.Ring(8)
	e := NewEngine(m, Greedy)
	rng := rand.New(rand.NewSource(5))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	e.OpenLoop(traffic.NewSymmetric(8), rng, OpenLoopOptions{Rate: 0, Ticks: 100})
}

func TestSaturationRateOrdersMachines(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	arr := topology.LinearArray(64)
	mesh := topology.Mesh(2, 8)
	arrBeta := NewEngine(arr, Greedy).SaturationRate(traffic.NewSymmetric(64), 2*float64(arr.Graph.E()), 300, 8, rng, 1)
	meshBeta := NewEngine(mesh, Greedy).SaturationRate(traffic.NewSymmetric(64), 2*float64(mesh.Graph.E()), 300, 8, rng, 1)
	if arrBeta <= 0 || meshBeta <= 0 {
		t.Fatalf("rates %v %v", arrBeta, meshBeta)
	}
	// β(mesh 64) = Θ(√n) ~ 8x the array's Θ(1) up to constants.
	if meshBeta < 3*arrBeta {
		t.Fatalf("mesh saturation %v not well above array %v", meshBeta, arrBeta)
	}
	// The array's steady-state rate is a small constant.
	if arrBeta > 12 {
		t.Fatalf("array saturation %v too high for Θ(1)", arrBeta)
	}
}

func TestSaturationMatchesBatchEstimate(t *testing.T) {
	// The open-loop and batch estimators measure the same β up to
	// constants.
	rng := rand.New(rand.NewSource(7))
	m := topology.Mesh(2, 6)
	e := NewEngine(m, Greedy)
	sat := e.SaturationRate(traffic.NewSymmetric(m.N()), 2*float64(m.Graph.E()), 300, 8, rng, 1)
	batch := traffic.Batch(traffic.NewSymmetric(m.N()), 8*m.N(), rng)
	raw := e.Route(batch, rng, 1).Rate
	ratio := sat / raw
	if ratio < 0.4 || ratio > 3 {
		t.Fatalf("open-loop %v vs batch %v: ratio %v outside Θ(1)", sat, raw, ratio)
	}
}

// Property: message conservation — injected always equals delivered plus
// in flight, at every tick, under arbitrary interleaving of Inject/Step.
func TestPropertyMessageConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := topology.Mesh(2, 4)
		e := NewEngine(m, Greedy)
		s := e.NewSim(rng)
		dist := traffic.NewSymmetric(m.N())
		for step := 0; step < 40; step++ {
			if rng.Intn(2) == 0 {
				s.Inject(traffic.Batch(dist, 1+rng.Intn(5), rng))
			}
			s.Step()
			if s.Injected() != s.Delivered()+s.InFlight() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyPercentile(t *testing.T) {
	m := topology.LinearArray(2)
	e := NewEngine(m, Greedy)
	rng := rand.New(rand.NewSource(8))
	s := e.NewSim(rng)
	// Five messages over one wire: latencies 1..5.
	batch := make([]traffic.Message, 5)
	for i := range batch {
		batch[i] = traffic.Message{Src: 0, Dst: 1}
	}
	s.Inject(batch)
	for s.InFlight() > 0 {
		s.Step()
	}
	if got := s.LatencyPercentile(1.0); got != 5 {
		t.Fatalf("p100 = %d, want 5", got)
	}
	if got := s.LatencyPercentile(0.5); got != 2 && got != 3 {
		t.Fatalf("p50 = %d, want 2 or 3", got)
	}
	if got := s.LatencyPercentile(0.2); got != 1 {
		t.Fatalf("p20 = %d, want 1", got)
	}
}

func TestOpenLoopReportsP95(t *testing.T) {
	m := topology.Mesh(2, 5)
	e := NewEngine(m, Greedy)
	rng := rand.New(rand.NewSource(9))
	res, _ := e.OpenLoop(traffic.NewSymmetric(m.N()), rng, OpenLoopOptions{Rate: 2, Ticks: 200})
	if res.P95Latency < 1 {
		t.Fatalf("p95 = %d", res.P95Latency)
	}
	if float64(res.P95Latency) < res.MeanLatency {
		t.Fatalf("p95 %d below mean %.1f", res.P95Latency, res.MeanLatency)
	}
}

// vertexRand must address exactly the stream measure.SeedPlan.Fork(tick,
// vertex) names, before and after a Reset re-roots the plan.
func TestVertexRandMatchesSeedPlan(t *testing.T) {
	e := NewEngine(topology.Ring(12), Greedy)
	s := e.NewSim(rand.New(rand.NewSource(9)))
	defer s.Close()
	for _, seed := range []int64{9, 10} {
		if seed != 9 {
			s.Reset(rand.New(rand.NewSource(seed)))
		}
		plan := measure.NewSeedPlan(rand.New(rand.NewSource(seed)).Int63())
		for tick := 1; tick <= 5; tick++ {
			s.Step()
			for u := 0; u < 12; u++ {
				want := uint64(plan.Fork(uint64(tick), uint64(u)).Seed())
				if got := s.vertexRand(u).state; got != want {
					t.Fatalf("seed %d tick %d vertex %d: state %#x, want %#x", seed, tick, u, got, want)
				}
			}
		}
	}
}
