package bandwidth

import (
	"math/rand"

	"repro/internal/routing"
	"repro/internal/traffic"
)

// SteadyStateBeta estimates β by open-loop saturation search on eng's
// machine: messages are injected continuously at a trial rate and the
// largest rate the machine sustains with bounded queues is found by
// bisection. This is the closest implementation of the paper's "expected
// average message delivery rate" — no batch tails at all — at the cost of
// longer runs than MeasureBeta.
//
// ticks is the run length per trial rate (300–500 works), iters the
// bisection depth (8–12). The probes run sharded the given number of ways
// on the (typically cached, greedy) engine, which is never mutated; the
// value is bit-identical at every shard count, and warm results are
// byte-identical to a fresh engine's.
func SteadyStateBeta(eng *routing.Engine, ticks, iters, shards int, rng *rand.Rand) float64 {
	m := eng.M
	dist := traffic.NewSymmetric(m.N())
	// The flux bound caps the search window.
	upper := fluxBound(m, rng) * 1.5
	if upper < 2 {
		upper = 2
	}
	if n := m.Graph.N(); n > 20 {
		// The window once came from UpperBounds(m, 2, rng), whose bisection
		// estimate drew one rng.Perm(n) per restart (graphs of at most 20
		// vertices are bisected exactly, without the rng). Replaying those
		// draws keeps every steady-β value's bytes.
		rng.Perm(n)
		rng.Perm(n)
	}
	return eng.SaturationRate(dist, upper, ticks, iters, rng, shards)
}
