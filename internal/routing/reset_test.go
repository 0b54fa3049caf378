package routing

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/topology"
	"repro/internal/traffic"
)

// The amortized-execution contract: a warm run (pooled sim recycled via
// Reset) must be byte-identical to a cold run (fresh engine, fresh sim) for
// the same seed — the TestShardedEquivalence contract extended to
// cold-vs-warm. These tests drive open loops, batch routes, and
// instrumented snapshots through one engine repeatedly and compare each
// warm result against a cold reference.

// coldOpenLoop runs one open loop on a throwaway engine.
func coldOpenLoop(m *topology.Machine, shards int, seed int64) OpenLoopResult {
	e := NewEngine(m, Greedy)
	dist := traffic.NewSymmetric(m.N())
	res, _ := e.OpenLoop(dist, rand.New(rand.NewSource(seed)), OpenLoopOptions{Rate: 3, Ticks: 80, Shards: shards})
	return res
}

func TestResetColdVsWarmOpenLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, m := range table4Machines(rng) {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			for _, shards := range []int{1, 4} {
				e := NewEngine(m, Greedy)
				dist := traffic.NewSymmetric(m.N())
				// Three consecutive runs on one engine: the first is cold,
				// the rest recycle the pooled sim. Every one must match a
				// cold run on a fresh engine with the same seed.
				for seed := int64(1); seed <= 3; seed++ {
					warm, _ := e.OpenLoop(dist, rand.New(rand.NewSource(seed)), OpenLoopOptions{Rate: 3, Ticks: 80, Shards: shards})
					cold := coldOpenLoop(m, shards, seed)
					if warm != cold {
						t.Errorf("shards=%d seed=%d: warm run diverged from cold\ncold: %+v\nwarm: %+v",
							shards, seed, cold, warm)
					}
				}
			}
		})
	}
}

func TestResetColdVsWarmRoute(t *testing.T) {
	m := topology.Mesh(2, 6)
	dist := traffic.NewSymmetric(m.N())
	for _, shards := range []int{1, 4} {
		e := NewEngine(m, Greedy)
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			batch := traffic.Batch(dist, 4*m.N(), rng)
			warm := e.Route(batch, rng, shards)

			ec := NewEngine(m, Greedy)
			crng := rand.New(rand.NewSource(seed))
			cbatch := traffic.Batch(dist, 4*m.N(), crng)
			cold := ec.Route(cbatch, crng, shards)
			if warm != cold {
				t.Errorf("shards=%d seed=%d: warm Route diverged from cold\ncold: %+v\nwarm: %+v",
					shards, seed, cold, warm)
			}
		}
	}
}

// Instrumented runs also pool their sims; the whole snapshot (per-tick
// series, edge loads, histograms) must survive the recycling byte-for-byte.
func TestResetColdVsWarmSnapshot(t *testing.T) {
	m := topology.DeBruijn(4)
	dist := traffic.NewSymmetric(m.N())
	snapJSON := func(snap *Snapshot) []byte {
		var buf bytes.Buffer
		if err := snap.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, shards := range []int{1, 4} {
		e := NewEngine(m, Greedy)
		o := OpenLoopOptions{Rate: 3, Ticks: 80, Shards: shards, Snapshot: true, TopK: 8}
		for seed := int64(1); seed <= 3; seed++ {
			warmRes, warmSnap := e.OpenLoop(dist, rand.New(rand.NewSource(seed)), o)

			ec := NewEngine(m, Greedy)
			coldRes, coldSnap := ec.OpenLoop(dist, rand.New(rand.NewSource(seed)), o)
			if warmRes != coldRes {
				t.Errorf("shards=%d seed=%d: warm snapshot run result diverged\ncold: %+v\nwarm: %+v",
					shards, seed, coldRes, warmRes)
			}
			if got, want := snapJSON(warmSnap), snapJSON(coldSnap); !bytes.Equal(got, want) {
				t.Errorf("shards=%d seed=%d: warm snapshot JSON diverged from cold", shards, seed)
			}
		}
	}
}

// Faulted sims are reset and pooled like any other, because the fault mask
// lives on the sim: faulted and fault-free open loops interleaved on one
// engine, each recycling the sim the one before it released, must each
// equal the same run on a fresh engine. The schedule never heals, so a
// mask left behind on the engine or the pooled sim would show in the next
// fault-free run.
func TestInterleavedFaultedOpenLoopsShareEngine(t *testing.T) {
	plan := topology.MustParseFaultSpec("edges:0.15@t20,nodes:2@t40")
	for _, m := range []*topology.Machine{topology.Mesh(2, 6), topology.DeBruijn(5), topology.ImplicitTorus(2, 5)} {
		dist := traffic.NewSymmetric(m.N())
		run := func(e *Engine, shards int, seed int64, faulted bool) OpenLoopResult {
			rng := rand.New(rand.NewSource(seed))
			o := OpenLoopOptions{Rate: 3, Ticks: 80, Shards: shards}
			if faulted {
				o.Faults = plan.Materialize(m, rng)
			}
			res, _ := e.OpenLoop(dist, rng, o)
			return res
		}
		for _, shards := range []int{1, 4} {
			e := NewEngine(m, Greedy)
			for seed := int64(1); seed <= 4; seed++ {
				for _, faulted := range []bool{true, false} {
					shared := run(e, shards, seed, faulted)
					fresh := run(NewEngine(m, Greedy), shards, seed, faulted)
					if shared != fresh {
						t.Errorf("%s shards=%d seed=%d faulted=%v: shared engine diverged from a fresh one\nfresh:  %+v\nshared: %+v",
							m.Name, shards, seed, faulted, fresh, shared)
					}
					if faulted && shared.Dropped == 0 && shared.Retried == 0 {
						t.Errorf("%s shards=%d seed=%d: the fault schedule had no effect", m.Name, shards, seed)
					}
					if len(e.simFree) != 1 {
						t.Errorf("%s shards=%d seed=%d faulted=%v: engine pools %d sims after the run, want 1",
							m.Name, shards, seed, faulted, len(e.simFree))
					}
				}
			}
		}
	}
}

// The open-loop allocation hot spot (satellite): a warm open loop recycles
// its sim, so the steady-state path allocates (near) nothing — the analogue
// of the Step budget in TestStepSteadyStateAllocs. The cold run before the
// measurement warms the pool and grows every scratch buffer to its
// high-water mark.
func TestOpenLoopWarmAllocs(t *testing.T) {
	m := topology.Mesh(2, 10)
	e := NewEngine(m, Greedy)
	dist := traffic.NewSymmetric(m.N())
	rng := rand.New(rand.NewSource(1))
	e.OpenLoop(dist, rng, OpenLoopOptions{Rate: 4, Ticks: 200}) // cold: builds the sim, fills the pool
	avg := testing.AllocsPerRun(20, func() {
		e.OpenLoop(dist, rng, OpenLoopOptions{Rate: 4, Ticks: 200})
	})
	// Budget: the warm path may allocate a handful of words (histogram
	// growth on an unlucky run), never the ~39 allocs / 413 KB a cold sim
	// build costs.
	if avg > 4 {
		t.Errorf("warm OpenLoop allocates %.1f allocs/run, budget 4", avg)
	}
}
