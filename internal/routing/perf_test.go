package routing

import (
	"math/rand"
	"testing"

	"repro/internal/topology"
	"repro/internal/traffic"
)

// Regression for the nearest-rank off-by-one: with latencies 1..10, the
// 30th percentile is the ceil(0.3*10) = 3rd smallest value, 3. The old
// int(p*n)-1 indexing floored 0.3*10 = 2.999... to 2 and returned 2.
func TestLatencyPercentileNearestRank(t *testing.T) {
	m := topology.LinearArray(2)
	e := NewEngine(m, Greedy)
	s := e.NewSim(rand.New(rand.NewSource(1)))
	// Ten messages over one wire: latencies 1..10.
	batch := make([]traffic.Message, 10)
	for i := range batch {
		batch[i] = traffic.Message{Src: 0, Dst: 1}
	}
	s.Inject(batch)
	for s.InFlight() > 0 {
		s.Step()
	}
	cases := []struct {
		p    float64
		want int
	}{
		{0.1, 1}, {0.3, 3}, {0.5, 5}, {0.7, 7}, {0.95, 10}, {1.0, 10},
	}
	for _, c := range cases {
		if got := s.LatencyPercentile(c.p); got != c.want {
			t.Errorf("LatencyPercentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

// steadyStateAllocs reports the average allocations per Step for a sim
// with a standing packet population, after a warmup that lets every
// backing array reach steady-state capacity.
func steadyStateAllocs(t *testing.T) float64 {
	t.Helper()
	m := topology.Mesh(2, 10)
	e := NewEngine(m, Greedy)
	rng := rand.New(rand.NewSource(3))
	s := e.NewSim(rng)
	dist := traffic.NewSymmetric(m.N())
	s.Inject(traffic.Batch(dist, 16*m.N(), rng))
	// Warm up: grow queues, touch lists, distance fields, histogram.
	for i := 0; i < 50; i++ {
		s.Step()
	}
	return testing.AllocsPerRun(100, func() { s.Step() })
}

// Allocation budget (ISSUE acceptance criterion): the steady-state Step
// loop must not allocate — per-tick wire usage is a flat array cleared via
// the touched list, queues reuse their backing arrays, and latencies
// stream into the histogram. A small fractional budget absorbs rare
// histogram/queue growth events.
func TestStepSteadyStateAllocs(t *testing.T) {
	if avg := steadyStateAllocs(t); avg > 0.1 {
		t.Errorf("Step allocates %.2f objects/tick at steady state, budget 0.1", avg)
	}
}

// The faulted hot path allocates nothing either, once every destination's
// masked field is built: pickHop walks a vertex's neighbours into a stack
// buffer, on generated adjacency (ImplicitMesh, ImplicitWeakHypercube) as
// on CSR arrays (Mesh, and DeBruijn, which has no closed-form hop even
// fault-free), and the dead-wire and stranded-packet checks reuse the
// cached fields.
func TestFaultedStepSteadyStateAllocs(t *testing.T) {
	for _, m := range []*topology.Machine{
		topology.Mesh(2, 10),
		topology.ImplicitMesh(2, 10),
		topology.ImplicitWeakHypercube(7),
		topology.DeBruijn(7),
	} {
		e := NewEngine(m, Greedy)
		rng := rand.New(rand.NewSource(3))
		s := e.NewSim(rng)
		s.SetFaults(topology.MustParseFaultSpec("edges:0.1@t2").Materialize(m, rng))
		dist := traffic.NewSymmetric(m.N())
		tick := func() {
			s.InjectSampled(dist, 4)
			s.Step()
		}
		// Warm up past the fault: 500 ticks of 4 messages name each of the
		// ≤128 destinations about 16 times, so every masked field is built
		// and the queues and histograms have reached their sizes.
		for i := 0; i < 500; i++ {
			tick()
		}
		if avg := testing.AllocsPerRun(100, tick); avg > 0.1 {
			t.Errorf("%s (implicit=%v): faulted Step allocates %.3f objects/tick at steady state, budget 0.1", m.Name, m.Implicit != nil, avg)
		}
		s.Close()
	}
}

// InjectSampled must behave exactly like Inject(traffic.Batch(...)) given
// the same rng state — the open-loop driver relies on that equivalence.
func TestInjectSampledMatchesBatchInject(t *testing.T) {
	m := topology.Mesh(2, 5)
	dist := traffic.NewSymmetric(m.N())

	run := func(sampled bool) (int, float64) {
		e := NewEngine(m, Greedy)
		rng := rand.New(rand.NewSource(11))
		s := e.NewSim(rng)
		for tick := 0; tick < 60; tick++ {
			if sampled {
				s.InjectSampled(dist, 3)
			} else {
				s.Inject(traffic.Batch(dist, 3, rng))
			}
			s.Step()
		}
		return s.Delivered(), s.MeanLatency()
	}

	d1, l1 := run(true)
	d2, l2 := run(false)
	if d1 != d2 || l1 != l2 {
		t.Fatalf("InjectSampled diverges from batch Inject: delivered %d/%d latency %v/%v", d1, d2, l1, l2)
	}
}

// The instrumented run must observe exactly what the counters say.
func TestSnapshotSeriesMatchCounters(t *testing.T) {
	m := topology.Mesh(2, 5)
	e := NewEngine(m, Greedy)
	rng := rand.New(rand.NewSource(5))
	res, snap := e.OpenLoop(traffic.NewSymmetric(m.N()), rng, OpenLoopOptions{Rate: 2, Ticks: 100, Snapshot: true, TopK: 5})
	if snap.Ticks != 100 || len(snap.DeliveredSeries) != 100 || len(snap.InjectedSeries) != 100 {
		t.Fatalf("series lengths %d/%d, ticks %d", len(snap.DeliveredSeries), len(snap.InjectedSeries), snap.Ticks)
	}
	var inj, del int
	for i := range snap.DeliveredSeries {
		inj += snap.InjectedSeries[i]
		del += snap.DeliveredSeries[i]
	}
	if inj != snap.Injected || inj != res.Injected {
		t.Fatalf("injected series sums to %d, counters %d/%d", inj, snap.Injected, res.Injected)
	}
	if del != snap.Delivered || del != res.Delivered {
		t.Fatalf("delivered series sums to %d, counters %d/%d", del, snap.Delivered, res.Delivered)
	}
	if snap.Injected-snap.Delivered != snap.Backlog {
		t.Fatalf("backlog %d inconsistent", snap.Backlog)
	}
	if len(snap.TopEdges) == 0 || len(snap.TopEdges) > 5 {
		t.Fatalf("top edges: %d", len(snap.TopEdges))
	}
	var hops int64
	for _, el := range snap.TopEdges {
		if el.Count <= 0 || !m.Graph.HasEdge(el.From, el.To) {
			t.Fatalf("bad edge load %+v", el)
		}
		hops += el.Count
	}
	if hops > snap.TotalHops {
		t.Fatalf("top-edge counts %d exceed total hops %d", hops, snap.TotalHops)
	}
	// Queue occupancy sampled n vertices per tick.
	var occ int64
	for _, b := range snap.QueueOccupancy {
		occ += b.Count
	}
	if want := int64(m.Vertices()) * 100; occ != want {
		t.Fatalf("queue occupancy samples %d, want %d", occ, want)
	}
}

// Stats collection must not change the simulation itself.
func TestStatsDoNotPerturbRun(t *testing.T) {
	m := topology.Mesh(2, 6)
	e := NewEngine(m, Greedy)
	dist := traffic.NewSymmetric(m.N())
	plain, _ := e.OpenLoop(dist, rand.New(rand.NewSource(9)), OpenLoopOptions{Rate: 3, Ticks: 150})
	instr, _ := e.OpenLoop(dist, rand.New(rand.NewSource(9)), OpenLoopOptions{Rate: 3, Ticks: 150, Snapshot: true, TopK: 10})
	if plain != instr {
		t.Fatalf("instrumented run diverged:\nplain %+v\ninstr %+v", plain, instr)
	}
}
