package experiment

import (
	"math/rand"

	"repro/internal/bandwidth"
	"repro/internal/routing"
	"repro/internal/runspec"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// betaKey is the job key, and so the RNG stream, of a β measurement: the
// canonical RunSpec string of the same measurement. Seed stays out of the
// spec (the runner's base seed roots every stream) and Shards stays out by
// the Canonical contract, so equivalent options — defaults left zero or
// spelled out, any shard count — canonicalize to one key and draw one
// stream.
func betaKey(f topology.Family, dim, size int, opts bandwidth.MeasureOptions) string {
	return runspec.Spec{
		Kind:        runspec.KindBeta,
		Machine:     &runspec.MachineSpec{Family: f.String(), Dim: dim, Size: size},
		LoadFactors: opts.LoadFactors,
		Trials:      opts.Trials,
		Strategy:    opts.Strategy.String(),
	}.Canonical()
}

// BetaFuture submits a job measuring the symmetric β of the
// Build-identified machine, keyed by betaKey. Two requests for the same
// measurement are two jobs on one stream, so they return the same value;
// a report section asking for β(Mesh², 64) prints what Table 4's sweep
// prints for it.
func (r *Runner) BetaFuture(f topology.Family, dim, size int, opts bandwidth.MeasureOptions) *Future[bandwidth.Measurement] {
	opts = opts.Canonical()
	return Go(r, betaKey(f, dim, size, opts), func(rng *rand.Rand) bandwidth.Measurement {
		m, eng := r.artifactsFor(f, dim, size, opts.Strategy, rng)
		if eng == nil {
			eng = routing.NewEngine(m, opts.Strategy)
		}
		return bandwidth.MeasureBeta(eng, traffic.NewSymmetric(m.N()), opts, rng)
	})
}

// artifactsFor resolves the job's machine (and, when shareable, engine)
// through the runner's artifact cache. Deterministic families consume no
// rng draws in topology.Build, so substituting the cached machine and
// engine preserves the job's keyed draw sequence exactly — results stay
// byte-identical to a cold build, just without rebuilding the machine
// and BFS distance fields for every section that measures the same
// host. Randomized families (Expander, Multibutterfly) must keep
// drawing their construction from the job stream, so they bypass the
// cache, as does any build the cache rejects.
func (r *Runner) artifactsFor(f topology.Family, dim, size int, strategy routing.Strategy, rng *rand.Rand) (*topology.Machine, *routing.Engine) {
	if topology.RandomizedFamily(f) {
		return topology.Build(f, dim, size, rng), nil
	}
	ms := runspec.MachineSpec{Family: f.String(), Dim: dim, Size: size}
	m, err := r.artifacts.Machine(ms)
	if err != nil {
		return topology.Build(f, dim, size, rng), nil
	}
	eng, err := r.artifacts.Engine(ms, strategy)
	if err != nil {
		return m, nil
	}
	return m, eng
}
