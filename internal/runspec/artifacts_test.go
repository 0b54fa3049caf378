package runspec

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/routing"
	"repro/internal/traffic"
)

// resultJSON is the wire form the server returns — the byte-identity
// currency of the cold-vs-warm contract.
func resultJSON(t testing.TB, res Result) []byte {
	t.Helper()
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// matrixMachines is the Table-4-flavored machine slice of the cold-vs-warm
// matrix: a dimensioned grid family, the hypercube, a fixed-degree network,
// a tree, and a randomized-construction family (seeded, so still cacheable).
func matrixMachines() []MachineSpec {
	return []MachineSpec{
		{Family: "mesh", Dim: 2, Size: 16},
		{Family: "torus", Dim: 2, Size: 16},
		{Family: "weak-hypercube", Size: 16},
		{Family: "debruijn", Size: 16},
		{Family: "tree", Size: 15},
		{Family: "expander", Size: 16, Seed: 7},
	}
}

// matrixSpecs returns every (kind, ±faults) point of the matrix for one
// machine and shard count. Knobs are turned down from the defaults so the
// whole matrix stays fast; the identity being tested is knob-independent.
func matrixSpecs(ms MachineSpec, shards int) []Spec {
	msp := func() *MachineSpec { c := ms; return &c }
	return []Spec{
		{Kind: KindBeta, Machine: msp(), LoadFactors: []int{2, 4}, Trials: 1, Seed: 3, Shards: shards},
		{Kind: KindSteadyBeta, Machine: msp(), Ticks: 40, Iters: 4, Seed: 3, Shards: shards},
		{Kind: KindOpenLoop, Machine: msp(), Rate: 3, Ticks: 60, Seed: 3, Shards: shards},
		{Kind: KindOpenLoop, Machine: msp(), Rate: 3, Ticks: 60, Snapshot: true, TopK: 6, Seed: 3, Shards: shards},
		{Kind: KindOpenLoop, Machine: msp(), Rate: 3, Ticks: 60, Faults: "edges:0.15@t15,heal@t40", Seed: 3, Shards: shards},
		{Kind: KindFaultCurve, Machine: msp(), FaultFracs: []float64{0.1}, Ticks: 40, Seed: 3, Shards: shards},
		{Kind: KindLambda, Machine: msp(), Seed: 3},
	}
}

// The tentpole invariant (ISSUE satellite): executing over a warm artifact
// cache is byte-identical to cold Execute, across machines × kinds ×
// ±faults × shard counts {1, 4}. Each spec runs three ways — plain Execute,
// ExecuteCached on a cold cache, ExecuteCached again on the now-warm cache —
// and all three marshal to the same bytes.
func TestExecuteCachedColdVsWarmMatrix(t *testing.T) {
	for _, ms := range matrixMachines() {
		ms := ms
		t.Run(ms.Family, func(t *testing.T) {
			cache := NewArtifactCache(0, 0)
			for _, shards := range []int{1, 4} {
				for _, spec := range matrixSpecs(ms, shards) {
					name := fmt.Sprintf("%s/shards=%d/faults=%v", spec.Kind, shards, spec.Faults != "")
					cold, err := Execute(spec)
					if err != nil {
						t.Fatalf("%s: Execute: %v", name, err)
					}
					want := resultJSON(t, cold)
					for pass, label := range []string{"cache-cold", "cache-warm"} {
						got, err := ExecuteCached(cache, spec)
						if err != nil {
							t.Fatalf("%s pass %d: ExecuteCached: %v", name, pass, err)
						}
						if gb := resultJSON(t, got); string(gb) != string(want) {
							t.Errorf("%s: %s result diverged from cold Execute\ncold: %s\ngot:  %s",
								name, label, want, gb)
						}
					}
				}
			}
		})
	}
}

// Fault masks live on the runs' sims, so faulted runs share the cached
// engine with fault-free ones. Faulted open loops, fault curves and
// fault-free specs on two machines run concurrently (under -race in CI)
// through one cache, twice each, and every result must equal plain
// Execute byte-for-byte; the cache builds one engine per machine.
func TestExecuteCachedConcurrentFaultedSharing(t *testing.T) {
	var specs []Spec
	for _, ms := range []MachineSpec{{Family: "mesh", Dim: 2, Size: 36}, {Family: "debruijn", Size: 32}} {
		msp := func() *MachineSpec { c := ms; return &c }
		for seed := int64(1); seed <= 2; seed++ {
			specs = append(specs,
				Spec{Kind: KindOpenLoop, Machine: msp(), Rate: 3, Ticks: 60, Faults: "edges:0.15@t15,nodes:2@t30,heal@t45", Seed: seed, Shards: 4},
				Spec{Kind: KindOpenLoop, Machine: msp(), Rate: 3, Ticks: 60, Faults: "nodes:3@t20", Snapshot: true, TopK: 4, Seed: seed},
				Spec{Kind: KindOpenLoop, Machine: msp(), Rate: 3, Ticks: 60, Snapshot: true, TopK: 4, Seed: seed, Shards: 4},
				Spec{Kind: KindFaultCurve, Machine: msp(), FaultFracs: []float64{0, 0.2}, Ticks: 40, Seed: seed},
				Spec{Kind: KindSteadyBeta, Machine: msp(), Ticks: 40, Iters: 3, Seed: seed},
			)
		}
	}
	want := make([][]byte, len(specs))
	for i, spec := range specs {
		res, err := Execute(spec)
		if err != nil {
			t.Fatalf("spec %d: Execute: %v", i, err)
		}
		want[i] = resultJSON(t, res)
	}
	cache := NewArtifactCache(0, 0)
	const passes = 2
	got := make([]Result, passes*len(specs))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = ExecuteCached(cache, specs[i%len(specs)])
		}(i)
	}
	wg.Wait()
	for i, res := range got {
		spec := specs[i%len(specs)]
		if errs[i] != nil {
			t.Fatalf("%s on %s: ExecuteCached: %v", spec.Kind, spec.Machine.Family, errs[i])
		}
		if gb := resultJSON(t, res); string(gb) != string(want[i%len(specs)]) {
			t.Errorf("%s on %s (faults %q, seed %d): concurrent cached result diverged from Execute\nwant: %s\ngot:  %s",
				spec.Kind, spec.Machine.Family, spec.Faults, spec.Seed, want[i%len(specs)], gb)
		}
	}
	if got := cache.EngineBuilds(); got != 2 {
		t.Errorf("engine builds = %d, want 2 (one greedy engine per machine, faulted runs included)", got)
	}
}

// A nil cache must degrade ExecuteCached to plain Execute.
func TestExecuteCachedNilCache(t *testing.T) {
	spec := Spec{Kind: KindLambda, Machine: &MachineSpec{Family: "mesh", Dim: 2, Size: 16}, Seed: 1}
	cold, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExecuteCached(nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	if string(resultJSON(t, got)) != string(resultJSON(t, cold)) {
		t.Error("nil-cache ExecuteCached diverged from Execute")
	}
}

// The race-safety contract (run under -race in CI): N goroutines hammering
// the cache with a mix of identical and distinct keys must each get a
// working engine, and the build counters must equal the distinct key counts
// — concurrent requests for one key share a single build.
func TestArtifactCacheConcurrentStress(t *testing.T) {
	cache := NewArtifactCache(0, 0)
	specs := []MachineSpec{
		{Family: "mesh", Dim: 2, Size: 16},
		{Family: "weak-hypercube", Size: 16},
		{Family: "debruijn", Size: 16},
		{Family: "torus", Dim: 2, Size: 16},
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 6; iter++ {
				ms := specs[(g+iter)%len(specs)]
				eng, err := cache.Engine(ms, routing.Greedy)
				if err != nil {
					errs <- err
					return
				}
				// Exercise the shared engine (and its sim pool) from many
				// goroutines at once: distance fields warm concurrently,
				// sims are acquired, run, and recycled.
				dist := traffic.NewSymmetric(eng.M.N())
				batch := traffic.Batch(dist, eng.M.N(), rng)
				st := eng.Route(batch, rng, 1+g%3)
				if st.Messages != len(batch) {
					errs <- fmt.Errorf("goroutine %d: routed %d of %d", g, st.Messages, len(batch))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := cache.MachineBuilds(), int64(len(specs)); got != want {
		t.Errorf("machine builds = %d, want %d (one per distinct key)", got, want)
	}
	if got, want := cache.EngineBuilds(), int64(len(specs)); got != want {
		t.Errorf("engine builds = %d, want %d (one per distinct key)", got, want)
	}
}

// LRU bounds: overflowing the machine cache evicts the least-recently-used
// entry, and a re-request rebuilds it.
func TestArtifactCacheLRUEviction(t *testing.T) {
	cache := NewArtifactCache(2, 2)
	a := MachineSpec{Family: "mesh", Dim: 2, Size: 9}
	b := MachineSpec{Family: "mesh", Dim: 2, Size: 16}
	c := MachineSpec{Family: "mesh", Dim: 2, Size: 25}
	for _, ms := range []MachineSpec{a, b, a, c} { // c evicts b
		if _, err := cache.Machine(ms); err != nil {
			t.Fatal(err)
		}
	}
	if got := cache.MachineBuilds(); got != 3 {
		t.Fatalf("machine builds = %d, want 3", got)
	}
	if _, err := cache.Machine(b); err != nil { // rebuilt, evicting a
		t.Fatal(err)
	}
	if got := cache.MachineBuilds(); got != 4 {
		t.Errorf("machine builds after re-request = %d, want 4 (b was evicted)", got)
	}
	if _, err := cache.Machine(c); err != nil { // still cached
		t.Fatal(err)
	}
	if got := cache.MachineBuilds(); got != 4 {
		t.Errorf("machine builds after cached re-request = %d, want 4 (c stayed)", got)
	}
}

// Build failures propagate but are never cached.
func TestArtifactCacheErrorNotCached(t *testing.T) {
	cache := NewArtifactCache(0, 0)
	bad := MachineSpec{Family: "no-such-family", Size: 16}
	if _, err := cache.Machine(bad); err == nil {
		t.Fatal("expected an error for an unknown family")
	}
	if _, err := cache.Machine(bad); err == nil {
		t.Fatal("expected the error again on re-request")
	}
	if got := cache.MachineBuilds(); got != 2 {
		t.Errorf("machine builds = %d, want 2 (failures are not cached)", got)
	}
}

// The sweep identity (ISSUE acceptance): a sweep's per-point results are
// byte-identical to the equivalent sequence of individual Execute calls.
func TestSweepMatchesIndividualExecutes(t *testing.T) {
	rate := func(v float64) *float64 { return &v }
	seed := func(v int64) *int64 { return &v }
	sw := SweepSpec{
		Base: Spec{
			Kind:    KindOpenLoop,
			Machine: &MachineSpec{Family: "mesh", Dim: 2, Size: 16},
			Rate:    2,
			Ticks:   60,
			Seed:    1,
		},
		Points: []SweepPoint{
			{},
			{Rate: rate(4)},
			{Rate: rate(6), Seed: seed(2)},
			{Machine: &MachineSpec{Family: "mesh", Dim: 2, Size: 25}},
		},
	}
	specs, err := sw.Specs()
	if err != nil {
		t.Fatal(err)
	}
	results, err := ExecuteSweep(NewArtifactCache(0, 0), sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("sweep returned %d results for %d points", len(results), len(specs))
	}
	for i, spec := range specs {
		want, err := Execute(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got, wantB := resultJSON(t, results[i]), resultJSON(t, want); string(got) != string(wantB) {
			t.Errorf("sweep point %d diverged from individual Execute\nwant: %s\ngot:  %s", i, wantB, got)
		}
	}
}

func TestSweepValidation(t *testing.T) {
	base := Spec{Kind: KindOpenLoop, Machine: &MachineSpec{Family: "mesh", Dim: 2, Size: 16}, Rate: 2, Seed: 1}
	cases := []struct {
		name string
		sw   SweepSpec
	}{
		{"no points", SweepSpec{Base: base}},
		{"emulate base", SweepSpec{Base: Spec{Kind: KindEmulate}, Points: []SweepPoint{{}}}},
		{"bad point", SweepSpec{Base: base, Points: []SweepPoint{{Rate: new(float64)}}}}, // rate 0
		{"no machine", SweepSpec{Base: Spec{Kind: KindLambda, Seed: 1}, Points: []SweepPoint{{}}}},
	}
	for _, tc := range cases {
		if _, err := tc.sw.Specs(); err == nil {
			t.Errorf("%s: expected a validation error", tc.name)
		}
	}
	if _, err := (SweepSpec{Base: base, Points: []SweepPoint{{}}}).Specs(); err != nil {
		t.Errorf("valid sweep rejected: %v", err)
	}
}

// benchSweepSpec is the benchmark workload: a machine big enough that
// build cost dominates a short measurement, which is exactly the regime
// real sweeps (many points, one machine) live in.
func benchSweepSpec(seed int64) Spec {
	return Spec{
		Kind:    KindOpenLoop,
		Machine: &MachineSpec{Family: "mesh", Dim: 2, Size: 1024},
		Rate:    2,
		Ticks:   40,
		Seed:    seed,
	}
}

// BenchmarkExecuteColdVsWarm measures the amortization payoff (ISSUE
// acceptance: warm points ≥2× faster than cold per-point Execute). The
// cold case is the pre-sweep world — every point rebuilds machine, engine,
// and sim — while the warm case executes over one shared artifact cache.
func BenchmarkExecuteColdVsWarm(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Execute(benchSweepSpec(int64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		cache := NewArtifactCache(0, 0)
		if _, err := ExecuteCached(cache, benchSweepSpec(-1)); err != nil { // warm the cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ExecuteCached(cache, benchSweepSpec(int64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
}
