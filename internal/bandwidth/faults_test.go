package bandwidth

import (
	"math/rand"
	"testing"

	"repro/internal/measure"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// ISSUE satellite: MeasureBeta on a deliberately disconnected machine used
// to stall (the batch router panicked after its no-progress limit because
// cross-component pairs can never deliver). The component filter must make
// it terminate with a positive β over the deliverable traffic.
func TestMeasureBetaOnDisconnectedMachine(t *testing.T) {
	// Failing 4 of 16 mesh processors leaves isolated vertices: symmetric
	// traffic hits them with probability ~44% per message.
	rng := rand.New(rand.NewSource(51))
	m, failed := topology.DeleteRandomProcessors(topology.Mesh(2, 4), 4, rng)
	if len(failed) != 4 {
		t.Fatalf("failed %d processors, want 4", len(failed))
	}
	meas := symmetricBeta(m, MeasureOptions{LoadFactors: []int{2, 4}, Trials: 1}, rng)
	if meas.Beta <= 0 {
		t.Fatalf("β = %v on the surviving component, want > 0", meas.Beta)
	}
	if meas.Dist != "symmetric[16]/connected" {
		t.Fatalf("distribution %q, want the /connected wrapper", meas.Dist)
	}
}

// The filter is the identity on connected machines: same name, same rng
// sequence, same measurement.
func TestDeliverableDistPassThrough(t *testing.T) {
	m := topology.Mesh(2, 4)
	dist := traffic.NewSymmetric(m.N())
	if got := deliverableDist(m, dist); got != dist {
		t.Fatalf("connected machine was wrapped: %v", got.Name())
	}
	meas := MeasureBeta(routing.NewEngine(m, routing.Greedy), dist, MeasureOptions{LoadFactors: []int{2}, Trials: 1}, rand.New(rand.NewSource(52)))
	if meas.Dist != "symmetric[16]" {
		t.Fatalf("distribution %q gained a suffix on a connected machine", meas.Dist)
	}
}

// connectedPairs only ever samples deliverable pairs.
func TestConnectedPairsSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	m, _ := topology.DeleteRandomProcessors(topology.Mesh(2, 4), 5, rng)
	dist := deliverableDist(m, traffic.NewSymmetric(m.N()))
	if dist.Name() != "symmetric[16]/connected" {
		t.Fatalf("name %q", dist.Name())
	}
	comps := m.Graph.Components()
	label := make([]int, m.Graph.N())
	for c, vs := range comps {
		for _, v := range vs {
			label[v] = c
		}
	}
	for i := 0; i < 500; i++ {
		msg := dist.Sample(rng)
		if label[msg.Src] != label[msg.Dst] {
			t.Fatalf("sampled cross-component pair %+v", msg)
		}
	}
}

// Degradation curves behave: a zero-fault point keeps its bandwidth, heavy
// faults cost measurable throughput on a butterfly, and the whole curve is
// deterministic in the plan (and invariant under point reordering, on an
// engine the first curve already ran on).
func TestMeasureBetaUnderFaults(t *testing.T) {
	eng := routing.NewEngine(topology.Butterfly(3), routing.Greedy)
	plan := measure.NewSeedPlan(7)
	fracs := []float64{0, 0.3}
	pts := MeasureBetaUnderFaults(eng, fracs, 240, 1, plan)
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	zero, heavy := pts[0], pts[1]
	if zero.Dropped != 0 || zero.Retried != 0 {
		t.Fatalf("zero-fault point dropped %d retried %d", zero.Dropped, zero.Retried)
	}
	if zero.BetaIntact <= 0 || zero.BetaDegraded <= 0 {
		t.Fatalf("zero-fault windows %v/%v", zero.BetaIntact, zero.BetaDegraded)
	}
	if r := zero.Retention(); r < 0.7 {
		t.Fatalf("zero-fault retention %v, want near 1", r)
	}
	if heavy.BetaIntact <= 0 {
		t.Fatalf("heavy point pre-fault window %v", heavy.BetaIntact)
	}
	// Killing 30% of a butterfly's wires must cost bandwidth.
	if heavy.Retention() >= 1 {
		t.Fatalf("30%% wire faults retained full bandwidth: %+v", heavy)
	}
	if heavy.Delivered+heavy.Dropped > heavy.Injected {
		t.Fatalf("ledger overflow: %+v", heavy)
	}
	// Same plan, reversed fracs: the same two points.
	rev := MeasureBetaUnderFaults(eng, []float64{0.3, 0}, 240, 1, plan)
	if rev[1] != zero || rev[0] != heavy {
		t.Fatalf("curve depends on frac ordering:\n%+v\n%+v", pts, rev)
	}
}

func TestMeasureBetaUnderFaultsTooFewTicksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MeasureBetaUnderFaults(routing.NewEngine(topology.Ring(8), routing.Greedy), []float64{0.1}, 10, 1, measure.NewSeedPlan(1))
}
