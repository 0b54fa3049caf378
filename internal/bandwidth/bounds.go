package bandwidth

import (
	"fmt"
	"math/rand"

	"repro/internal/embed"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Bounds collects analytic upper bounds on β(M) that any measurement must
// respect (for uncapacitated machines; per-vertex caps can only lower the
// true rate further, so the bounds stay valid but may be loose).
type Bounds struct {
	// Flux = Σ_v txcap(v) / avgdist: every delivered message consumes at
	// least avgdist transmissions, and the machine performs at most
	// Σ txcap transmissions per tick, where txcap(v) = min(cap(v), deg(v)).
	Flux float64
	// Bisection = 4 * (heuristic bisection width): a cut of width w passes
	// at most 2w messages per tick (one per wire per direction), and under
	// symmetric traffic at least ~half of all messages must cross any
	// balanced cut, so the delivery rate is at most ~4w.
	Bisection float64
}

// UpperBounds computes the flux and bisection bounds for m. The bisection
// heuristic uses `restarts` local-search restarts.
func UpperBounds(m *topology.Machine, restarts int, rng *rand.Rand) Bounds {
	flux := fluxBound(m, rng)
	return Bounds{
		Flux:      flux,
		Bisection: 4 * float64(m.Graph.EstimateBisection(restarts, rng)),
	}
}

// fluxBound computes the flux bound of m (see Bounds), estimating the
// average distance from BFS samples drawn from rng.
func fluxBound(m *topology.Machine, rng *rand.Rand) float64 {
	g := m.Graph
	if g == nil {
		panic(fmt.Sprintf("bandwidth: the flux bound needs a materialized graph; %s is implicit (use Materialize first)", m.Name))
	}
	var txcap float64
	for v := 0; v < g.N(); v++ {
		deg := float64(g.Degree(v))
		if c := m.Cap(v); c >= 0 && float64(c) < deg {
			txcap += float64(c)
		} else {
			txcap += deg
		}
	}
	samples := 64
	if g.N() < samples {
		samples = g.N()
	}
	avg, err := g.SampleAverageDistance(samples, rng)
	if err != nil {
		panic(fmt.Sprintf("bandwidth: %s: %v", m.Name, err))
	}
	return txcap / avg
}

// ImprovedGraphBeta estimates β like GraphTheoreticBeta but routes the
// traffic embedding through the congestion-aware rerouting pass, which can
// move load off shortest paths entirely. This matters on hierarchical
// machines (pyramids, multigrids): for far pairs every shortest path funnels
// through the apex, so shortest-path-only estimates are apex-limited at
// Θ(1)-ish rates, while the paper's β — a supremum over routings — uses the
// base mesh and reaches Θ(n^{(k-1)/k}). rounds controls the rerouting
// passes (2–3 suffice).
func ImprovedGraphBeta(m *topology.Machine, t traffic.Distribution, rounds int, rng *rand.Rand) float64 {
	if t.N() != m.N() {
		panic(fmt.Sprintf("bandwidth: traffic over %d endpoints on machine of %d processors", t.N(), m.N()))
	}
	tg := t.Graph()
	e := embed.RandomShortestPaths(m.Graph, tg, embed.IdentityMap(tg.N()), rng)
	c := e.Improve(rounds, rng)
	if c == 0 {
		return 0
	}
	return float64(tg.E()) / float64(c)
}

// GraphTheoreticBeta estimates β via Theorem 6's equivalence
//
//	β(M, T) = Θ( E(T) / C(M, T) )
//
// using the fractional congestion estimator for C(M, T) with the identity
// assignment of traffic endpoints to processors. Only valid when the
// traffic endpoints coincide with the machine's processors and the machine
// has no switch vertices (the assignment maps endpoint i to vertex i).
func GraphTheoreticBeta(m *topology.Machine, t traffic.Distribution, spread int, rng *rand.Rand) float64 {
	if t.N() != m.N() {
		panic(fmt.Sprintf("bandwidth: traffic over %d endpoints on machine of %d processors", t.N(), m.N()))
	}
	tg := t.Graph()
	vm := embed.IdentityMap(tg.N())
	c := embed.FractionalCongestion(m.Graph, tg, vm, spread, rng)
	if c == 0 {
		return 0
	}
	return float64(tg.E()) / c
}
