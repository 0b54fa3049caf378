package netemu

import (
	"io"
	"math/rand"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// Spec identifies a machine family shape (family + dimension) for the
// symbolic theorem machinery.
type Spec = core.Spec

// Bound is the Efficient Emulation Theorem instantiated for a guest/host
// family pair: β formulas, the minimum guest time λ(G), the symbolic
// maximum host size, numeric slowdown bounds, and Figure 1 curves.
type Bound = core.Bound

// Analytic is a Table 4 entry: β(M) and λ(M) as growth functions.
type Analytic = bandwidth.Analytic

// AnalyticBeta returns the paper's Table 4 formulas for a family
// (dim required for dimensioned families).
func AnalyticBeta(f Family, dim int) (Analytic, error) { return bandwidth.Table4(f, dim) }

// SlowdownBound instantiates the Efficient Emulation Theorem for a
// guest/host family pair.
func SlowdownBound(guest, host Spec) (Bound, error) { return core.NewBound(guest, host) }

// MaxHostSize returns the human-readable maximum host size for an
// efficient emulation of guest on host, e.g. "O(lg^{2} |G|)" for a de
// Bruijn guest on a 2-d mesh host.
func MaxHostSize(guest, host Spec) (string, error) {
	b, err := core.NewBound(guest, host)
	if err != nil {
		return "", err
	}
	return b.MaxHostString(), nil
}

// MeasureOptions tunes operational bandwidth measurement; the zero value
// uses sensible defaults (load factors 2/4/8, two trials, greedy routing).
type MeasureOptions = bandwidth.MeasureOptions

// Measurement is one operational bandwidth estimate.
type Measurement = bandwidth.Measurement

// GraphBeta estimates β via Theorem 6's graph form E(T)/C(M,T) with
// all-pairs traffic, using a fractional congestion estimator with the
// given path spread.
func GraphBeta(m *Machine, spread int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return bandwidth.GraphTheoreticBeta(m, traffic.NewSymmetric(m.N()), spread, rng)
}

// ImprovedGraphBeta is GraphBeta with congestion-aware rerouting, which
// matters on hierarchical machines whose shortest paths all funnel through
// the apex (pyramids, multigrids); see the bandwidth package for details.
func ImprovedGraphBeta(m *Machine, rounds int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return bandwidth.ImprovedGraphBeta(m, traffic.NewSymmetric(m.N()), rounds, rng)
}

// RouteStats reports one routed batch (see MeasurePermutation).
type RouteStats = routing.Stats

// MeasurePermutation routes `rounds` random permutations (each processor
// sends one message) and returns the stats of the combined batch — a
// common routing benchmark alongside the paper's symmetric traffic.
func MeasurePermutation(m *Machine, rounds int, seed int64) RouteStats {
	rng := rand.New(rand.NewSource(seed))
	perm := traffic.RandomPermutation(m.N(), rng)
	batch := traffic.Batch(perm, rounds*m.N(), rng)
	eng := routing.NewEngine(m, routing.Greedy)
	return eng.Route(batch, rng, 1)
}

// BottleneckReport is the outcome of the paper's bottleneck-freeness audit.
type BottleneckReport = bandwidth.BottleneckReport

// AuditBottleneck checks the paper's host-side condition statistically:
// no quasi-symmetric traffic pattern on a subset of processors may beat
// the symmetric delivery rate by more than a constant.
func AuditBottleneck(m *Machine, trials int, opts MeasureOptions, seed int64) BottleneckReport {
	return bandwidth.AuditBottleneck(m, trials, opts, rand.New(rand.NewSource(seed)))
}

// TableRow is one reproduced entry of Tables 1-3.
type TableRow = core.Row

// Table1 reproduces the paper's Table 1 (mesh/torus/X-grid guests of
// dimension j against the standard host list, dimensioned hosts at k).
func Table1(j, k int) []TableRow { return core.Table1(j, k) }

// Table2 reproduces Table 2 (mesh-of-trees/multigrid/pyramid guests).
func Table2(j, k int) []TableRow { return core.Table2(j, k) }

// Table3 reproduces Table 3 (butterfly-class guests).
func Table3(k int) []TableRow { return core.Table3(k) }

// WriteTable renders rows as an aligned text table.
func WriteTable(w io.Writer, title string, rows []TableRow) error {
	return core.WriteTable(w, title, rows)
}

// WriteTable4 renders the reproduced Table 4 (β and λ per machine).
func WriteTable4(w io.Writer, k int) error { return core.WriteTable4(w, k) }

// OpenLoopResult reports a steady-state open-loop run: throughput, mean
// and tail latency, backlog, and stability.
type OpenLoopResult = routing.OpenLoopResult

// Snapshot is a point-in-time statistical export of a routing run:
// counters, latency quantiles, queue-occupancy histogram, top-k edge
// utilization, and per-tick series, with JSON/CSV writers. It backs the
// -stats flag of cmd/betameter and cmd/emusim.
type Snapshot = routing.Snapshot

// NewLocalityTraffic returns a distance-decaying traffic distribution on
// the machine's graph (decay in (0,1); smaller = more local). Local
// traffic evades the bandwidth bound — most messages avoid the thin cuts —
// which is exactly why the theorem is stated for symmetric traffic.
func NewLocalityTraffic(m *Machine, decay float64) traffic.Distribution {
	if m.Graph == nil {
		panic("netemu: locality traffic needs a materialized graph; " + m.Name + " is implicit")
	}
	if m.N() != m.Graph.N() {
		panic("netemu: locality traffic needs a pure processor machine")
	}
	return traffic.NewLocality(m.Graph, decay)
}

// MeasureBetaUnder measures the delivery rate of m under an arbitrary
// distribution (for comparisons against the symmetric β).
func MeasureBetaUnder(m *Machine, dist traffic.Distribution, opts MeasureOptions, seed int64) Measurement {
	return bandwidth.MeasureBeta(routing.NewEngine(m, opts.Strategy), dist, opts, rand.New(rand.NewSource(seed)))
}

// TrafficDistribution is the interface traffic patterns implement.
type TrafficDistribution = traffic.Distribution
