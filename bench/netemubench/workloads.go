package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"

	"repro/internal/loadplan"
	"repro/internal/runspec"
	"repro/internal/store"
)

// Request classes: which handler path a request takes, so latency and
// per-layer figures can be split by it.
const (
	classMeasure     = "measure"      // POST /v1/measure or /v1/emulate
	classSweep       = "sweep"        // POST /v1/sweep
	classResultKey   = "result_key"   // GET /v1/results/{key}
	classResultQuery = "result_query" // GET /v1/results?...
	classOther       = "other"        // tables, meta
)

// request is one generated HTTP request. Everything the program under
// test receives is built here, as a pure function of (workload, seed,
// scale).
type request struct {
	method string
	path   string
	body   []byte
	class  string
	// points is how many results a 200 answer carries: the point count
	// of a sweep, 1 otherwise.
	points int
	// spec indexes workload.specs for hot-read requests that name a spec
	// (its POST, or a GET of its stored result; for a prefill sweep, its
	// first point); -1 otherwise.
	spec int
}

// scale shrinks a workload for the smoke test. The benchmark runs at
// div = 1; every count divides by div (with a floor that keeps the mix
// meaningful). Rates are not scaled.
type scale struct{ div int }

func (s scale) of(n, floor int) int {
	v := n / s.div
	if v < floor {
		return floor
	}
	return v
}

// workload is one traffic mix and the deployment it runs against.
type workload struct {
	name    string
	cluster bool // coordinator plus two workers, rather than one node
	// rate, when positive, makes the load an open loop at that many
	// requests per second; otherwise it is a closed loop.
	rate float64
	// rssAt is the completed-request count at which server RSS is read:
	// a fixed amount of work, so a faster server is not charged for the
	// extra records it stores in the same window. It is about 60% of what
	// a window's 16 s of load complete on the two-CPU box the benchmark
	// was sized on; 0 (the open loop, whose work is fixed by its rate)
	// reads RSS at the end.
	rssAt int
	// warm is the warm-up: one request per machine shape (hot-read: the
	// recent window). It runs inside setup.
	warm []request
	// next returns the i-th request of the measured window; false past
	// the end of a finite input.
	next func(i int) (request, bool)

	// hot-read only: every spec it names (history first, then new
	// specs), and how many of them are history.
	specs   []runspec.Spec
	history int
	// history prefill, sent untimed before setup.
	prefill []request
}

var workloadNames = []string{"measure-cold", "sweep", "hot-read", "cluster-mix"}

// newWorkload generates the named workload for seed. Seeds must lie in
// [0, 2^31) so that seed<<32 leaves 32 bits of per-request index.
func newWorkload(name string, seed int64, sc scale) (*workload, error) {
	if seed < 0 || seed >= 1<<31 {
		return nil, fmt.Errorf("seed %d out of range [0, 2^31)", seed)
	}
	switch name {
	case "measure-cold":
		return measureCold(seed, sc), nil
	case "sweep":
		return sweepLoad(seed, sc), nil
	case "hot-read":
		return hotRead(seed, sc), nil
	case "cluster-mix":
		return clusterMix(seed, sc), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// specSeed gives every generated spec of one benchmark seed its own
// 32-bit slot, so two benchmark seeds never share a canonical key.
func specSeed(seed int64, slot uint32) int64 { return seed<<32 | int64(slot) }

// Reserved slots: warm-up specs sit at the top of the slot space, far
// above any window index.
const warmSlot = 0xFFFF0000

// mix hashes (seed, stream, item) with the splitmix64 finalizer, so
// lazily generated inputs are pure functions of their index and need no
// shared generator state.
func mix(seed int64, s, i uint64) uint64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ s<<56 ^ i
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// indexRand is a generator for item i of stream s.
func indexRand(seed int64, s, i uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix(seed, s, i))))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("netemubench: marshaling a generated value: " + err.Error())
	}
	return b
}

func specRequest(s runspec.Spec, id int) request {
	return request{method: http.MethodPost, path: s.Kind.Endpoint(), body: mustJSON(s), class: classMeasure, points: 1, spec: id}
}

func mesh(size int) *runspec.MachineSpec {
	return &runspec.MachineSpec{Family: "Mesh", Dim: 2, Size: size}
}

// coldShapes are measure-cold's four spec shapes: β on a hypercube,
// open loop on a large mesh, steady-state β, and a mapped emulation.
// Their sizes make each cost about the same (6–7 ms on one CPU of the
// box the benchmark was sized on): were two shapes much cheaper than
// the other two, the median request would fall in the gap between the
// groups, and latency_p50_ms would read one group's slow tail or the
// other's fast tail from run to run.
func coldShapes() []runspec.Spec {
	return []runspec.Spec{
		{Kind: runspec.KindBeta, Machine: &runspec.MachineSpec{Family: "WeakHypercube", Size: 1024}, LoadFactors: []int{2, 4}, Trials: 1},
		{Kind: runspec.KindOpenLoop, Machine: mesh(1024), Rate: 4, Ticks: 400},
		{Kind: runspec.KindSteadyBeta, Machine: mesh(64), Ticks: 96, Iters: 2},
		{Kind: runspec.KindEmulate, Guest: &runspec.MachineSpec{Family: "DeBruijn", Size: 256}, Host: mesh(64), Steps: 2, Mode: runspec.ModeMapped},
	}
}

// measureCold never repeats a spec: each block of four requests visits
// every shape once, in a seeded order, with a fresh spec seed.
func measureCold(seed int64, sc scale) *workload {
	shapes := coldShapes()
	w := &workload{name: "measure-cold", rssAt: sc.of(2400, 60)}
	for k, s := range shapes {
		s.Seed = specSeed(seed, warmSlot+uint32(k))
		w.warm = append(w.warm, specRequest(s, -1))
	}
	w.next = func(i int) (request, bool) {
		order := indexRand(seed, 1, uint64(i/len(shapes))).Perm(len(shapes))
		s := shapes[order[i%len(shapes)]]
		s.Seed = specSeed(seed, uint32(i))
		return specRequest(s, -1), true
	}
	return w
}

const sweepPoints = 16

// sweepLoad posts 16-point open-loop sweeps on one warm machine; every
// point has a fresh seed, so each one simulates and is stored.
func sweepLoad(seed int64, sc scale) *workload {
	w := &workload{name: "sweep", rssAt: sc.of(2400, 60)}
	warm := runspec.Spec{Kind: runspec.KindOpenLoop, Machine: mesh(256), Rate: 1, Ticks: 40, Seed: specSeed(seed, warmSlot)}
	w.warm = []request{specRequest(warm, -1)}
	w.next = func(i int) (request, bool) {
		rng := indexRand(seed, 2, uint64(i))
		sw := runspec.SweepSpec{Base: runspec.Spec{Kind: runspec.KindOpenLoop, Machine: mesh(256), Ticks: 40}}
		for j := 0; j < sweepPoints; j++ {
			rate := float64(1 + rng.Intn(4))
			s := specSeed(seed, uint32(i*sweepPoints+j))
			sw.Points = append(sw.Points, runspec.SweepPoint{Rate: &rate, Seed: &s})
		}
		return request{method: http.MethodPost, path: "/v1/sweep", body: mustJSON(sw), class: classSweep, points: sweepPoints, spec: -1}, true
	}
	return w
}

// hot-read shape: history specs are slots [0, 2^30), new specs
// [2^30, 2^31). The rate keeps the two connections under half busy (a
// round trip takes about 0.8 ms on the box the benchmark was sized on):
// near saturation, a machine 25% slower than usual would make the queue
// grow for the rest of the segment.
const (
	hotRate      = 1000
	newSlotBase  = 1 << 30
	hotTicks     = 32
	hotMachine   = 64
	prefillBatch = 500
)

func hotSpec(seed int64, slot uint32) runspec.Spec {
	rate := float64(1 + mix(seed, 3, uint64(slot))%4)
	return runspec.Spec{Kind: runspec.KindOpenLoop, Machine: mesh(hotMachine), Rate: rate, Ticks: hotTicks, Seed: specSeed(seed, slot)}
}

// resultPath is the GET path of a spec's stored result.
func resultPath(s runspec.Spec) string { return "/v1/results/" + store.KeyOf(s.Canonical()) }

// hotRead is an open loop over a working set larger than the memo: new
// specs, repeats of recent ones, re-posts of history, and reads of
// stored results by key and by query.
func hotRead(seed int64, sc scale) *workload {
	history := sc.of(20000, 400)
	recent := sc.of(512, 10)
	// A result is read at least gap requests after its POST was sent —
	// half a second at full rate, so a briefly stalled POST has landed.
	gap := sc.of(hotRate/2, 20)
	n := sc.of(hotRate*loadSeconds, 1)

	w := &workload{name: "hot-read", rate: hotRate, history: history}
	for h := 0; h < history; h++ {
		w.specs = append(w.specs, hotSpec(seed, uint32(h)))
	}
	for b := 0; b < history; b += prefillBatch {
		sw := runspec.SweepSpec{Base: runspec.Spec{Kind: runspec.KindOpenLoop, Machine: mesh(hotMachine), Ticks: hotTicks}}
		for h := b; h < history && h < b+prefillBatch; h++ {
			s := w.specs[h]
			rate, sd := s.Rate, s.Seed
			sw.Points = append(sw.Points, runspec.SweepPoint{Rate: &rate, Seed: &sd})
		}
		w.prefill = append(w.prefill, request{method: http.MethodPost, path: "/v1/sweep", body: mustJSON(sw), class: classSweep, points: len(sw.Points), spec: b})
	}

	newSpec := func() int {
		id := len(w.specs)
		w.specs = append(w.specs, hotSpec(seed, uint32(newSlotBase+id-history)))
		return id
	}
	// postedAt[k] is the window index of new spec k's POST; the warm-up
	// ones were sent before the window.
	var postedAt []int
	for k := 0; k < recent; k++ {
		id := newSpec()
		postedAt = append(postedAt, -1<<30)
		w.warm = append(w.warm, specRequest(w.specs[id], id))
	}

	rng := rand.New(rand.NewSource(specSeed(seed, 4)))
	reqs := make([]request, 0, n)
	for i := 0; i < n; i++ {
		nNew := len(postedAt)
		switch p := rng.Intn(100); {
		case p < 20: // a never-seen spec
			id := newSpec()
			postedAt = append(postedAt, i)
			reqs = append(reqs, specRequest(w.specs[id], id))
		case p < 60: // a repeat of one of the most recent new specs
			k := nNew - 1 - rng.Intn(recent)
			reqs = append(reqs, specRequest(w.specs[history+k], history+k))
		case p < 80: // history
			h := rng.Intn(history)
			reqs = append(reqs, specRequest(w.specs[h], h))
		case p < 95: // a stored result by key, recent or historical
			var id int
			if rng.Intn(2) == 0 {
				// Newest new spec posted at least gap requests ago; the
				// warm-up window always qualifies.
				hi := nNew - 1
				for postedAt[hi] > i-gap {
					hi--
				}
				id = history + hi - rng.Intn(min(recent, hi+1))
			} else {
				id = rng.Intn(history)
			}
			reqs = append(reqs, request{method: http.MethodGet, path: resultPath(w.specs[id]), class: classResultKey, points: 1, spec: id})
		default:
			reqs = append(reqs, request{method: http.MethodGet, path: "/v1/results?limit=50", class: classResultQuery, points: 1, spec: -1})
		}
	}
	w.next = func(i int) (request, bool) {
		if i >= len(reqs) {
			return request{}, false
		}
		return reqs[i], true
	}
	return w
}

// clusterMix replays the netemuload plan (with store reads) through a
// coordinator and two workers, with every spec given a fresh seed. The
// plan draws its run seeds from [0, 8), so its keys repeat within
// seconds and the coordinator's memo would soon answer nearly every
// request without the cluster doing anything; with fresh seeds every
// computation is forwarded to the worker the ring picks, validated and
// stored, while the plan's kinds, machines and reads keep their mix.
//
// Two choices keep the workload on the cluster and its runs comparable.
// The plan's fault curves are left out: each rebuilds its engine and
// takes 100–400 ms where the plan's other requests take about 1 ms, so
// with fresh seeds 5% of the requests would take 80% of the window and
// the workload would measure fault-curve simulation, not the cluster.
// And the rest of the plan is replayed interleaved: every request class
// (kind and machine shape, or GET path) is spread evenly through the
// order, so any prefix holds each class in the plan's proportion, to
// within one request.
func clusterMix(seed int64, sc scale) *workload {
	n := sc.of(clusterMixPerSecond*loadSeconds, 4000)
	plan := loadplan.BuildWithOptions(seed, n, loadplan.Options{Reads: true})
	w := &workload{name: "cluster-mix", cluster: true, rssAt: sc.of(clusterRSSAt, 200)}
	// Warm-up: one λ measurement per machine shape the plan draws from.
	for k, ms := range []*runspec.MachineSpec{mesh(16), mesh(25), mesh(36), mesh(64),
		{Family: "WeakHypercube", Dim: 3, Size: 8}, {Family: "WeakHypercube", Dim: 3, Size: 16},
		{Family: "WeakHypercube", Dim: 4, Size: 8}, {Family: "WeakHypercube", Dim: 4, Size: 16}} {
		w.warm = append(w.warm, specRequest(runspec.Spec{Kind: runspec.KindLambda, Machine: ms, Seed: specSeed(seed, warmSlot+uint32(k))}, -1))
	}
	reqs := make([]request, 0, n)
	strata := make([]string, 0, n)
	for i, p := range plan {
		if p.Kind == string(runspec.KindFaultCurve) {
			continue
		}
		r := request{method: p.Method, path: p.Path, body: p.Body, class: classOther, points: 1, spec: -1}
		stratum := p.Path
		switch {
		case p.Method == http.MethodPost:
			var s runspec.Spec
			if err := json.Unmarshal(p.Body, &s); err != nil {
				panic("netemubench: decoding a loadplan spec: " + err.Error())
			}
			s.Seed = specSeed(seed, uint32(i))
			r.class, r.body = classMeasure, mustJSON(s)
			s.Seed, s.Rate = 0, 0
			stratum = string(mustJSON(s))
		case p.Kind == "results":
			r.class, stratum = classResultQuery, p.Kind
		}
		reqs = append(reqs, r)
		strata = append(strata, stratum)
	}
	reqs = interleave(reqs, strata)
	w.next = func(i int) (request, bool) {
		if i >= len(reqs) {
			return request{}, false
		}
		return reqs[i], true
	}
	return w
}

// interleave reorders reqs so that every stratum is spread evenly: the
// j-th of a stratum's m requests is placed at (j+½)/m of the way
// through, ties going to the stratum seen first in reqs. Within a
// stratum the order is kept.
func interleave(reqs []request, strata []string) []request {
	count := map[string]int{}
	first := map[string]int{}
	for i, s := range strata {
		if count[s] == 0 {
			first[s] = i
		}
		count[s]++
	}
	type slot struct {
		at    float64
		first int
		req   request
	}
	slots := make([]slot, len(reqs))
	seen := map[string]int{}
	for i, s := range strata {
		slots[i] = slot{(float64(seen[s]) + 0.5) / float64(count[s]), first[s], reqs[i]}
		seen[s]++
	}
	sort.SliceStable(slots, func(a, b int) bool {
		if slots[a].at != slots[b].at {
			return slots[a].at < slots[b].at
		}
		return slots[a].first < slots[b].first
	})
	out := make([]request, len(slots))
	for i, s := range slots {
		out[i] = s.req
	}
	return out
}

// cluster-mix sizing: generated requests per second of window (a closed
// loop completes well under it on two CPUs, so the inputs outlast the
// window), and the completed-request count at which RSS is read.
const (
	clusterMixPerSecond = 2500
	clusterRSSAt        = 12000
)
