package bandwidth

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/measure"
	"repro/internal/multigraph"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Degradation measurement: how much operational bandwidth a machine keeps
// when wires fail mid-run. The paper's β is defined on an intact machine;
// the curves produced here measure the same delivery-rate quantity before
// and after a fault event on one continuous run, which is what the
// robustness comparisons (butterfly vs multibutterfly) plot.

// connectedPairs wraps a traffic distribution so it only ever samples
// source/destination pairs that lie in the same connected component of the
// machine's graph. On a disconnected machine the raw distribution produces
// undeliverable pairs, which stall the batch router forever; filtering them
// out makes β measurable on the reachable traffic.
type connectedPairs struct {
	inner traffic.Distribution
	comp  []int // per-vertex component label
}

func (c *connectedPairs) Name() string { return c.inner.Name() + "/connected" }
func (c *connectedPairs) N() int       { return c.inner.N() }

func (c *connectedPairs) Sample(rng *rand.Rand) traffic.Message {
	// Rejection sampling preserves the inner distribution conditioned on
	// deliverability. The attempt cap only trips when essentially no mass
	// lands on same-component pairs, which deserves a loud failure.
	for i := 0; i < 1<<20; i++ {
		m := c.inner.Sample(rng)
		if c.comp[m.Src] == c.comp[m.Dst] {
			return m
		}
	}
	panic(fmt.Sprintf("bandwidth: distribution %s has no deliverable pairs on this disconnected machine", c.inner.Name()))
}

func (c *connectedPairs) Graph() *multigraph.Multigraph { return c.inner.Graph() }

// deliverableDist returns dist unchanged when every processor of m lies in
// one connected component, and a component-filtered wrapper otherwise.
// Connected machines therefore keep the exact rng draw sequence (and so the
// exact measured values) they had before disconnected machines were
// supported.
func deliverableDist(m *topology.Machine, dist traffic.Distribution) traffic.Distribution {
	if m.Graph == nil {
		// Implicit machines are connected by construction; returning early
		// keeps their rng draw sequence identical to their explicit twins'.
		return dist
	}
	comp := make([]int, m.Graph.N())
	for i := range comp {
		comp[i] = -1
	}
	for label, vs := range m.Graph.Components() {
		for _, v := range vs {
			comp[v] = label
		}
	}
	connected := true
	for v := 1; v < m.N(); v++ {
		if comp[v] != comp[0] {
			connected = false
			break
		}
	}
	if connected {
		return dist
	}
	// At least one component must hold two processors, or no message is
	// ever deliverable.
	count := make(map[int]int)
	ok := false
	for v := 0; v < m.N(); v++ {
		count[comp[v]]++
		if count[comp[v]] >= 2 {
			ok = true
			break
		}
	}
	if !ok {
		panic(fmt.Sprintf("bandwidth: %s has no component with two processors; nothing is measurable", m.Name))
	}
	return &connectedPairs{inner: dist, comp: comp}
}

// FaultPoint is one sample of a degradation curve: the delivery rate
// sustained before and after a mid-run wire-fault event that kills the
// given fraction of live wires.
type FaultPoint struct {
	Frac         float64 // fraction of live wires failed at the event
	Rate         float64 // injection rate driven (messages/tick)
	BetaIntact   float64 // delivered/tick over the pre-fault window
	BetaDegraded float64 // delivered/tick over the post-fault window
	Injected     int
	Delivered    int
	Dropped      int
	Retried      int
}

// Retention is the fraction of pre-fault bandwidth the machine kept (1 when
// the pre-fault window delivered nothing).
func (p FaultPoint) Retention() float64 {
	if p.BetaIntact <= 0 {
		return 1
	}
	r := p.BetaDegraded / p.BetaIntact
	if r > 1 {
		r = 1
	}
	return r
}

// MeasureBetaUnderFaults produces a degradation curve for eng's machine
// under symmetric traffic: for each fault fraction, one continuous
// open-loop run is driven near the intact machine's saturation rate, a
// wire-fault event fires a third of the way in, and the delivery rate is
// measured over a pre-fault window and a post-fault window (the middle
// third after the event is discarded as re-convergence transient).
// Stranded packets retry with the default budget/backoff/TTL and count as
// dropped when they give up.
//
// The runs route under eng's strategy (greedy in every caller) and are
// sharded the given number of ways (the liveness mask shards with the
// vertex partition: dead processors drop their queues shard-locally and
// the conservation invariant holds globally); the curve is bit-identical at
// every shard count. Fault masks live on the runs' sims, so eng is never
// mutated and may be shared, as the artifact cache shares it.
//
// Determinism: each fraction runs on its own plan stream keyed by the
// fraction's bit pattern, so the curve is invariant under reordering of
// fracs and each point is independent of the others.
func MeasureBetaUnderFaults(eng *routing.Engine, fracs []float64, ticks, shards int, plan measure.SeedPlan) []FaultPoint {
	if ticks < 30 {
		panic(fmt.Sprintf("bandwidth: %d ticks cannot hold pre-fault, transient, and post-fault windows; use >= 30", ticks))
	}
	out := make([]FaultPoint, 0, len(fracs))
	for _, frac := range fracs {
		out = append(out, faultPoint(eng, frac, ticks, shards, plan))
	}
	return out
}

// faultPoint measures one fraction of a degradation curve on its own
// plan-derived stream.
func faultPoint(eng *routing.Engine, frac float64, ticks, shards int, plan measure.SeedPlan) FaultPoint {
	m := eng.M
	rng := plan.RNG(math.Float64bits(frac))
	dist := traffic.NewSymmetric(m.N())

	// Find the intact machine's saturation rate, then drive the fault run
	// just below it so the pre-fault window measures a stable β.
	sat := eng.SaturationRate(dist, 2*float64(m.Graph.E()), 200, 8, rng, shards)
	rate := 0.9 * sat
	if rate <= 0 {
		panic(fmt.Sprintf("bandwidth: %s saturates at rate 0", m.Name))
	}

	failTick := ticks / 3
	fplan := topology.FaultPlan{{Kind: topology.EdgeFaults, Tick: failTick, Frac: frac}}
	sched := fplan.Materialize(m, rng)

	s := eng.NewShardedSim(rng, shards)
	defer s.Close()
	s.SetFaults(sched)

	warmup := failTick / 3
	postStart := failTick + (ticks-failTick)/3
	var acc float64
	preDelivered, preTicks := 0, 0
	postDelivered, postTicks := 0, 0
	for t := 0; t < ticks; t++ {
		acc += rate
		k := int(acc)
		acc -= float64(k)
		if k > 0 {
			s.InjectSampled(dist, k)
		}
		d := s.Step()
		switch {
		case t >= warmup && t < failTick:
			preDelivered += d
			preTicks++
		case t >= postStart:
			postDelivered += d
			postTicks++
		}
	}
	p := FaultPoint{
		Frac:      frac,
		Rate:      rate,
		Injected:  s.Injected(),
		Delivered: s.Delivered(),
		Dropped:   s.Dropped(),
		Retried:   s.Retried(),
	}
	if preTicks > 0 {
		p.BetaIntact = float64(preDelivered) / float64(preTicks)
	}
	if postTicks > 0 {
		p.BetaDegraded = float64(postDelivered) / float64(postTicks)
	}
	return p
}
