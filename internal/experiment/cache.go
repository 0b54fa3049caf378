package experiment

import (
	"math/rand"

	"repro/internal/bandwidth"
	"repro/internal/routing"
	"repro/internal/runspec"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The memoized measurements. Keys are canonical runspec.Spec strings —
// the same identity the netemud coalescer and the disk cache use — so a
// report section asking for β(Mesh², 64) under default options and a
// crossover sweep asking for the same machine share one computation. The
// RNG stream is derived from the same key, which keeps cached and
// uncached runs bit-identical: the first requester and a cold run both
// draw stream(key).

// betaKey is the canonical RunSpec key of a memoized β measurement. Seed
// stays out of the spec — the runner's base seed enters via diskKey — and
// Shards stays out by the Canonical contract, so every consumer (memo,
// disk cache, netemud coalescer) that asks for the same measurement lands
// on the same string.
func betaKey(f topology.Family, dim, size int, opts bandwidth.MeasureOptions) string {
	return runspec.Spec{
		Kind:        runspec.KindBeta,
		Machine:     &runspec.MachineSpec{Family: f.String(), Dim: dim, Size: size},
		LoadFactors: opts.LoadFactors,
		Trials:      opts.Trials,
		Strategy:    opts.Strategy.String(),
	}.Canonical()
}

// betaEntry is the serializable part of a Measurement — what the disk
// cache stores. The Machine itself is rebuilt on the keyed stream on a hit,
// so hit and miss paths return identical Measurements.
type betaEntry struct {
	Dist       string          `json:"dist"`
	Beta       float64         `json:"beta"`
	RateByLoad map[int]float64 `json:"rate_by_load"`
}

// BetaFuture returns the (possibly already running) memoized measurement of
// the symmetric β of the Build-identified machine. The first call per key
// submits the job; later calls share its future. With a disk cache
// attached, the job consults it before running the simulator. Shards is
// deliberately absent from the key (in-memory and on disk): the sharded
// simulator's determinism contract makes the measured value identical at
// every shard count.
func (r *Runner) BetaFuture(f topology.Family, dim, size int, opts bandwidth.MeasureOptions) *Future[bandwidth.Measurement] {
	opts = opts.Canonical()
	key := betaKey(f, dim, size, opts)
	if v, ok := r.beta.Load(key); ok {
		return v.(*Future[bandwidth.Measurement])
	}
	fut := newFuture(r, key, func(rng *rand.Rand) bandwidth.Measurement {
		m, eng := r.artifactsFor(f, dim, size, opts.Strategy, rng)
		if r.disk != nil {
			var e betaEntry
			if r.disk.load(r.diskKey(key), &e) {
				return bandwidth.Measurement{Machine: m, Dist: e.Dist, Beta: e.Beta, RateByLoad: e.RateByLoad}
			}
		}
		if eng == nil {
			eng = routing.NewEngine(m, opts.Strategy)
		}
		meas := bandwidth.MeasureBeta(eng, traffic.NewSymmetric(m.N()), opts, rng)
		if r.disk != nil {
			r.disk.store(r.diskKey(key), betaEntry{Dist: meas.Dist, Beta: meas.Beta, RateByLoad: meas.RateByLoad})
		}
		return meas
	})
	if actual, loaded := r.beta.LoadOrStore(key, fut); loaded {
		return actual.(*Future[bandwidth.Measurement])
	}
	fut.submit(r)
	return fut
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
	if r.artifacts == nil || topology.RandomizedFamily(f) {
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
