package runspec

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/routing"
	"repro/internal/topology"
)

// ArtifactCache amortizes the expensive, immutable ingredients of a run
// across Execute calls: machines keyed by their MachineSpec canonical form,
// and routing engines keyed by (machine key, strategy). A sweep over one
// machine then rebuilds nothing per point — the BFS distance fields,
// implicit-adjacency oracles, CSR arrays, and the engines' pooled sims all
// carry over, which is what makes warm sweep points cheap.
//
// Safety rests on what the cached values are allowed to be: cached machines
// and engines are only handed to code paths that never mutate them. Every
// measurement kind qualifies, faulted ones included — fault masks live on
// the runs' sims, not on the engine — and only emulation (which degrades
// and clones machines) bypasses the cache — see ExecuteCached.
//
// Concurrency: lookups are race-safe, and concurrent requests for the same
// key share one build (later callers block on the first builder's done
// channel), so a thundering herd of identical sweep points builds each
// artifact exactly once. Capacity is LRU-bounded per artifact class.
type ArtifactCache struct {
	mu       sync.Mutex
	clock    uint64
	machines map[string]*cacheSlot[*topology.Machine]
	engines  map[string]*cacheSlot[*routing.Engine]

	machineCap int
	engineCap  int

	machineBuilds atomic.Int64
	engineBuilds  atomic.Int64
}

// cacheSlot is one in-flight or completed build. val and err are written
// exactly once, before done closes; waiters read them only after <-done.
type cacheSlot[T any] struct {
	done  chan struct{}
	val   T
	err   error
	built bool   // guarded by ArtifactCache.mu; eviction skips in-flight slots
	use   uint64 // LRU stamp, guarded by ArtifactCache.mu
}

// Default LRU bounds: a report-scale workload touches a few dozen machines
// and at most two engines (one per strategy) each.
const (
	defaultMachineCap = 32
	defaultEngineCap  = 64
)

// NewArtifactCache returns a cache bounded to the given entry counts per
// artifact class; values < 1 select the defaults.
func NewArtifactCache(machineCap, engineCap int) *ArtifactCache {
	if machineCap < 1 {
		machineCap = defaultMachineCap
	}
	if engineCap < 1 {
		engineCap = defaultEngineCap
	}
	return &ArtifactCache{
		machines:   make(map[string]*cacheSlot[*topology.Machine]),
		engines:    make(map[string]*cacheSlot[*routing.Engine]),
		machineCap: machineCap,
		engineCap:  engineCap,
	}
}

// MachineKey is the cache identity of a MachineSpec: the family's canonical
// spelling plus every field that affects the built machine, including the
// adjacency representation (an implicit machine is a different object — no
// materialized graph — even though its measurements are byte-identical).
func MachineKey(ms MachineSpec) string {
	if f, err := topology.ParseFamily(ms.Family); err == nil {
		ms.Family = f.String()
	}
	b, err := json.Marshal(ms)
	if err != nil {
		panic(fmt.Sprintf("runspec: machine key marshal: %v", err))
	}
	return "machine/" + string(b)
}

// Machine returns the machine ms identifies, building it at most once per
// key. Randomized families (Expander, Multibutterfly) are deterministic
// here too: BuildMachine roots their construction at ms.Seed, so one key is
// one machine.
func (c *ArtifactCache) Machine(ms MachineSpec) (*topology.Machine, error) {
	return cacheGet(c, c.machines, c.machineCap, MachineKey(ms), &c.machineBuilds, func() (*topology.Machine, error) {
		return BuildMachine(ms)
	})
}

// Engine returns a routing engine for ms under the given strategy, building
// it at most once per key. Cached engines are shared: callers may route,
// open-loop, bisect and run fault schedules on them (each call takes its
// shard count as an argument, keeps any fault mask on its own sim, and
// never mutates the engine).
func (c *ArtifactCache) Engine(ms MachineSpec, strategy routing.Strategy) (*routing.Engine, error) {
	m, err := c.Machine(ms)
	if err != nil {
		return nil, err
	}
	key := MachineKey(ms) + "|" + strategy.String()
	return cacheGet(c, c.engines, c.engineCap, key, &c.engineBuilds, func() (*routing.Engine, error) {
		return routing.NewEngine(m, strategy), nil
	})
}

// MachineBuilds returns how many machine builds the cache has performed —
// the concurrency stress tests assert it equals the distinct key count.
func (c *ArtifactCache) MachineBuilds() int64 { return c.machineBuilds.Load() }

// EngineBuilds returns how many engine builds the cache has performed.
func (c *ArtifactCache) EngineBuilds() int64 { return c.engineBuilds.Load() }

// cacheGet is the shared lookup-or-build path. Failed builds propagate to
// every waiter of that flight but are not cached.
func cacheGet[T any](c *ArtifactCache, m map[string]*cacheSlot[T], capacity int, key string, builds *atomic.Int64, build func() (T, error)) (T, error) {
	c.mu.Lock()
	if sl, ok := m[key]; ok {
		c.clock++
		sl.use = c.clock
		c.mu.Unlock()
		<-sl.done
		return sl.val, sl.err
	}
	sl := &cacheSlot[T]{done: make(chan struct{})}
	c.clock++
	sl.use = c.clock
	m[key] = sl
	evictOldest(m, capacity)
	c.mu.Unlock()

	builds.Add(1)
	val, err := build()

	c.mu.Lock()
	sl.val, sl.err, sl.built = val, err, true
	if err != nil {
		delete(m, key)
	}
	close(sl.done)
	c.mu.Unlock()
	return val, err
}

// evictOldest drops least-recently-used built slots until the map fits its
// capacity. In-flight slots are never evicted (their builder still owns
// them); waiters on an evicted slot are unaffected — eviction only forgets
// the key. Called with ArtifactCache.mu held; capacities are small enough
// that the scan is noise next to a single BFS field.
func evictOldest[T any](m map[string]*cacheSlot[T], capacity int) {
	for len(m) > capacity {
		oldestKey := ""
		oldestUse := uint64(math.MaxUint64)
		for k, sl := range m {
			if sl.built && sl.use < oldestUse {
				oldestKey, oldestUse = k, sl.use
			}
		}
		if oldestKey == "" {
			return
		}
		delete(m, oldestKey)
	}
}

// ExecuteCached is Execute over a shared artifact cache: byte-identical
// results, amortized cost. Emulation is the one bypass: it degrades,
// remaps, and clones machines, so nothing it touches is shareable, and it runs
// through plain Execute. Every other kind, faulted or not, reuses the
// cached machine and engine through the explicit-shards measurement entry
// points, which never mutate them. A nil cache degrades to Execute.
func ExecuteCached(c *ArtifactCache, s Spec) (Result, error) {
	if c == nil {
		return Execute(s)
	}
	s = s.Normalized()
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	if s.Kind == KindEmulate {
		return Execute(s)
	}
	if s.Machine == nil {
		return Result{}, fmt.Errorf("runspec: kind %s needs a machine spec", s.Kind)
	}
	var res Result
	var err error
	labeled(s, func() { res, err = runCached(c, s) })
	return res, err
}

// runCached executes one measurement spec over the cache: Run's body on
// the cached machine and engine.
func runCached(c *ArtifactCache, s Spec) (Result, error) {
	ms := *s.Machine
	m, err := c.Machine(ms)
	if err != nil {
		return Result{}, err
	}
	return run(m, s, func(strategy routing.Strategy) (*routing.Engine, error) {
		return c.Engine(ms, strategy)
	})
}
