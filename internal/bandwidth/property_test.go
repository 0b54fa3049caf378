package bandwidth

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// smallTable4Machines are small instances of every Table 4 machine, the
// sweep the analytic-bound property test runs over.
func smallTable4Machines(rng *rand.Rand) []*topology.Machine {
	return []*topology.Machine{
		topology.LinearArray(16),
		topology.GlobalBus(16),
		topology.Tree(4),
		topology.WeakPPN(16),
		topology.XTree(4),
		topology.Mesh(2, 4),
		topology.Mesh(3, 3),
		topology.Torus(2, 4),
		topology.XGrid(2, 4),
		topology.MeshOfTrees(2, 4),
		topology.Multigrid(2, 4),
		topology.Pyramid(2, 4),
		topology.Butterfly(3),
		topology.WrappedButterfly(3),
		topology.CubeConnectedCycles(3),
		topology.ShuffleExchange(4),
		topology.DeBruijn(4),
		topology.WeakHypercube(4),
		topology.Multibutterfly(3, rng),
		topology.Expander(16, rng),
	}
}

// ISSUE satellite: the measured open-loop saturation throughput — the
// largest *stable* delivery rate, the operational β — can never exceed the
// analytic bisection-based upper bound: a cut of width w passes at most 2w
// messages per tick and roughly half of all symmetric traffic must cross
// it, so a stable rate is at most ~4w. (An overloaded run can report a
// higher raw delivery count, because non-crossing traffic keeps flowing
// while crossing traffic queues without bound — only stable rates are
// bounded.) The heuristic bisection only over-estimates the true width, so
// the 4w bound it yields stays a valid upper bound; a small tolerance
// absorbs the bounded-backlog slack in the stability test.
func TestOpenLoopThroughputRespectsBisectionBound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, m := range smallTable4Machines(rng) {
		bounds := UpperBounds(m, 4, rng)
		eng := routing.NewEngine(m, routing.Greedy)
		dist := traffic.NewSymmetric(m.N())
		sat := eng.SaturationRate(dist, 2*math.Min(bounds.Flux, bounds.Bisection), 300, 8, rng, 1)
		if sat > 1.1*bounds.Bisection {
			t.Errorf("%s: saturation throughput %.2f exceeds bisection bound %.2f",
				m.Name, sat, bounds.Bisection)
		}
		if sat > 1.1*bounds.Flux {
			t.Errorf("%s: saturation throughput %.2f exceeds flux bound %.2f",
				m.Name, sat, bounds.Flux)
		}
	}
}
