package routing

import "repro/internal/measure"

// Per-decision randomness for the tick loop.
//
// The serial simulator used to draw every in-tick random choice (hop
// tie-breaks, the active-list shuffle) from one sequential *rand.Rand, which
// welds the results to a single global consumption order: any attempt to
// process vertices concurrently changes which draw lands where. The sharded
// simulator instead keys randomness by *position*, not by order: every
// vertex u gets an independent splitmix64 stream per tick, derived from the
// sim's measure.SeedPlan by the key tuple (tick, vertex). Two consequences:
//
//   - processing order is semantically irrelevant, because no vertex ever
//     consumes another vertex's stream — which is what makes the sharded
//     phases embarrassingly parallel; and
//   - results are bit-identical at every shard count and under every
//     partition, because the key tuple never mentions the shard. A shard is
//     just a batch of vertices; the finest "shard" (one vertex) is the unit
//     the streams are keyed by, so coarser groupings cannot change them.
//
// vrand is deliberately tiny: one uint64 of state on the stack, no
// allocation, no interface dispatch in the hot path.

// vrand is a splitmix64 sequence rooted at a SeedPlan-derived state.
type vrand struct{ state uint64 }

// next returns the next 64 random bits.
func (r *vrand) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return measure.Mix64(r.state)
}

// intn returns a value in [0, n). n must be positive. The tiny modulo bias
// is irrelevant at the n <= degree sizes the router uses (tie-breaking among
// a handful of wires), and the modulo keeps intn branch-free and cheap.
func (r *vrand) intn(n int) int {
	return int(r.next() % uint64(n))
}
