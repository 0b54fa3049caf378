package routing

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/multigraph"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The sharding determinism contract: a sim partitioned across any number
// of shards produces results bit-for-bit identical to the serial sim. These tests drive every
// Table 4 machine through instrumented open loops, with and without a
// fault schedule, and compare both the OpenLoopResult and the full
// snapshot JSON byte-for-byte.

// implicitTwin returns the implicit machine equivalent to m, if its family
// has a generator and m is a pristine instance of it. Implicit machines
// return themselves. The twin has the same Name, size and capacities, so
// simulation results on it are byte-identical.
func implicitTwin(m *topology.Machine) (*topology.Machine, bool) {
	if m.Implicit != nil {
		return m, true
	}
	var tw *topology.Machine
	switch {
	case m.Dim < 0 || m.Dim > topology.MaxImplicitDim:
		return nil, false
	case m.Family == topology.WeakHypercubeFamily && m.VertexCap != nil && m.Side >= 1 && m.Side <= 26:
		// The strong hypercube shares the family but has no caps; only the
		// weak (uniformly capped) machine has an implicit twin.
		tw = topology.ImplicitWeakHypercube(m.Side)
	case m.Family == topology.MeshFamily && m.Dim >= 1 && m.Side >= 2 && m.VertexCap == nil:
		tw = topology.ImplicitMesh(m.Dim, m.Side)
	case m.Family == topology.TorusFamily && m.Dim >= 1 && m.Side >= 3 && m.VertexCap == nil:
		tw = topology.ImplicitTorus(m.Dim, m.Side)
	default:
		return nil, false
	}
	if tw.Name != m.Name || tw.Procs != m.Procs || tw.EdgeCount() != m.Graph.E() {
		return nil, false
	}
	return tw, true
}

var equivalenceFaultSpec = topology.MustParseFaultSpec("edges:0.15@t20,nodes:2@t40,heal@t60")

// shardedRun drives one instrumented open loop on a fresh engine at the
// given shard count and returns the result plus the snapshot JSON. With
// bfs set the engine routes an explicit machine on CSR arrays even where
// NewEngine would take its generator, so it goes through the BFS-field
// path instead of the closed-form next hop — the independent
// implementation the representation contract compares against.
func shardedRun(t *testing.T, m *topology.Machine, shards int, faults, bfs bool) (OpenLoopResult, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	e := NewEngine(m, Greedy)
	if bfs {
		e = newEngine(m, Greedy, nil)
	}
	o := OpenLoopOptions{Rate: 3, Ticks: 80, Shards: shards, Snapshot: true, TopK: 8}
	if faults {
		o.Faults = equivalenceFaultSpec.Materialize(m, rng)
	}
	res, snap := e.OpenLoop(traffic.NewSymmetric(m.N()), rng, o)
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// ISSUE acceptance: the full equivalence matrix. For every Table 4
// machine (plus the strong hypercube, an odd-side torus, a mesh at the
// implicit generators' dimension limit, and a 13×13 mesh whose 169
// vertices make shard active bitsets span several words, end in a partial
// word and start off a multiple of 64) the reference is the serial
// explicit run through the CSR + BFS-field path. Every shard count in
// {1, 2, 4, 7}, every available representation (explicit CSR, and the
// implicit generator for weak-hypercube/mesh/torus machines), with and
// without a fault schedule, must reproduce its OpenLoopResult and snapshot
// JSON byte-for-byte. On hypercubes, meshes and tori both representations
// route on the generator, taking the closed-form next hop while
// fault-free, so the CSR + BFS-field reference is what keeps this a
// comparison of two independent implementations rather than a tautology.
func TestShardedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	machines := append(table4Machines(rng), topology.StrongHypercube(4), topology.Torus(3, 3), topology.Mesh(topology.MaxImplicitDim, 2), topology.Mesh(2, 13))
	for _, m := range machines {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			reps := []*topology.Machine{m}
			if tw, ok := implicitTwin(m); ok && tw != m {
				reps = append(reps, tw)
			}
			for _, faults := range []bool{false, true} {
				wantRes, wantSnap := shardedRun(t, m, 1, faults, true)
				if faults && wantRes.Dropped == 0 && wantRes.Retried == 0 {
					// Still a valid equivalence check, but flag machines
					// where the schedule had no effect at all.
					t.Logf("%s: fault schedule caused no drops/retries", m.Name)
				}
				for _, rep := range reps {
					implicit := rep.Implicit != nil
					for _, shards := range []int{1, 2, 4, 7} {
						gotRes, gotSnap := shardedRun(t, rep, shards, faults, false)
						if gotRes != wantRes {
							t.Errorf("implicit=%v faults=%v shards=%d: OpenLoopResult diverged\nBFS-field reference: %+v\ngot:                 %+v",
								implicit, faults, shards, wantRes, gotRes)
						}
						if !bytes.Equal(gotSnap, wantSnap) {
							t.Errorf("implicit=%v faults=%v shards=%d: snapshot JSON diverged from the BFS-field reference",
								implicit, faults, shards)
						}
					}
				}
			}
		})
	}
}

// TestImplicitEquivalenceLargeSmoke drives a machine too big for the full
// matrix — an order-14 hypercube (16,384 vertices) — through a serial
// explicit run and a sharded implicit run, both on the generator's
// closed-form next hop, against the serial CSR + BFS-field reference, and
// builds the million-vertex instances the implicit representation exists
// for.
func TestImplicitEquivalenceLargeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large equivalence smoke skipped in -short mode")
	}
	m := topology.WeakHypercube(14)
	tw, ok := implicitTwin(m)
	if !ok {
		t.Fatal("WeakHypercube(14) has no implicit twin")
	}
	wantRes, wantSnap := shardedRun(t, m, 1, false, true)
	for _, run := range []struct {
		rep    *topology.Machine
		shards int
	}{{m, 1}, {tw, 4}} {
		gotRes, gotSnap := shardedRun(t, run.rep, run.shards, false, false)
		if gotRes != wantRes || !bytes.Equal(gotSnap, wantSnap) {
			t.Errorf("order-14 hypercube (implicit=%v, shards=%d): diverged from the BFS-field reference\nwant %+v\ngot  %+v",
				run.rep.Implicit != nil, run.shards, wantRes, gotRes)
		}
	}

	// The dim-20 hypercube and the 1024x1024 mesh exist only implicitly
	// (the explicit constructors cap out below these sizes). Run a few
	// ticks to prove the engine actually routes at this scale.
	for _, big := range []*topology.Machine{
		topology.ImplicitWeakHypercube(20),
		topology.ImplicitMesh(2, 1024),
	} {
		e := NewEngine(big, Greedy)
		s := e.NewSim(rand.New(rand.NewSource(9)))
		dist := traffic.NewSymmetric(big.N())
		s.InjectSampled(dist, 4096)
		for i := 0; i < 8; i++ {
			s.Step()
		}
		if s.Delivered()+s.InFlight() != s.Injected() {
			t.Errorf("%s: conservation broken: injected %d delivered %d inflight %d",
				big.Name, s.Injected(), s.Delivered(), s.InFlight())
		}
		s.Close()
	}
}

// ISSUE acceptance: the fault-free sharded steady state stays within the
// per-shard allocation budget (0.1 allocs per tick per shard). The phase
// barriers reuse long-lived workers and channels, mailboxes and touched
// lists reuse their backing arrays, and the per-(tick, vertex) randomness
// lives on the stack, so nothing in the tick loop allocates.
func TestShardedStepSteadyStateAllocs(t *testing.T) {
	for _, shards := range []int{2, 4} {
		m := topology.Mesh(2, 10)
		e := NewEngine(m, Greedy)
		rng := rand.New(rand.NewSource(3))
		s := e.NewShardedSim(rng, shards)
		defer s.Close()
		dist := traffic.NewSymmetric(m.N())
		s.Inject(traffic.Batch(dist, 16*m.N(), rng))
		for i := 0; i < 50; i++ {
			s.Step()
		}
		avg := testing.AllocsPerRun(100, func() { s.Step() })
		if budget := 0.1 * float64(shards); avg > budget {
			t.Errorf("sharded Step (k=%d) allocates %.2f objects/tick at steady state, budget %.1f", shards, avg, budget)
		}
	}
}

// Exactly the pristine hypercubes, meshes and tori of dimension at most
// MaxImplicitDim route on their generator, in either representation, and
// the generator's closed-form next hop agrees with BFS exactly there: its
// candidates from u towards dst are exactly u's BFS-downhill neighbours,
// each under its own edge id. A generator engine holds no CSR arrays and
// no field cache, so a fault-free run on it cannot build a BFS field.
// Degraded clones, non-geometric machines and higher-dimensional meshes
// must route on CSR arrays.
func TestAnalyticDistanceMatchesBFS(t *testing.T) {
	shaped := []struct {
		m    *topology.Machine
		kind geomKind
	}{
		{topology.WeakHypercube(4), geomHypercube},
		{topology.StrongHypercube(5), geomHypercube},
		{topology.Mesh(2, 5), geomMesh},
		{topology.Mesh(3, 3), geomMesh},
		{topology.Mesh(topology.MaxImplicitDim, 2), geomMesh},
		{topology.Torus(2, 5), geomTorus},
		{topology.Torus(3, 3), geomTorus},
		{topology.ImplicitWeakHypercube(4), geomHypercube},
		{topology.ImplicitMesh(2, 5), geomMesh},
		{topology.ImplicitTorus(3, 3), geomTorus},
	}
	for _, c := range shaped {
		m := c.m
		e := NewEngine(m, Greedy)
		if e.geom == nil || e.gk != c.kind {
			t.Errorf("%s (implicit=%v): generator %v kind %d, want kind %d", m.Name, m.Implicit != nil, e.geom, e.gk, c.kind)
			continue
		}
		if e.nbrV != nil || e.nbrMult != nil || e.edgeBase != nil || e.distPtrs != nil {
			t.Errorf("%s (implicit=%v): generator engine holds CSR arrays or a field cache", m.Name, m.Implicit != nil)
		}
		g := m.Materialize().Graph
		edgeUsed := make([]int32, e.numEdges)
		for dst := 0; dst < g.N(); dst++ {
			d := g.BFS(dst)
			for u := range d {
				if u == dst {
					continue
				}
				// Saturate each pick's wire and pick again until none is
				// left: the picks are then the whole candidate set.
				var picked []int
				for vr := (vrand{state: uint64(u)}); ; {
					h, id := e.pickHop(u, dst, edgeUsed, &vr, nil)
					if h < 0 {
						break
					}
					if from, to := e.edgeEnds(id); from != u || to != h {
						t.Fatalf("%s: hop %d->%d has edge id %d of %d->%d", m.Name, u, h, id, from, to)
					}
					edgeUsed[id] = 1
					picked = append(picked, h)
				}
				var downhill []int
				for _, v := range g.Neighbors(u) {
					if d[v] == d[u]-1 {
						downhill = append(downhill, v)
					}
				}
				slices.Sort(picked)
				if !slices.Equal(picked, downhill) {
					t.Fatalf("%s: candidates %d->%d are %v, BFS-downhill neighbours %v", m.Name, u, dst, picked, downhill)
				}
				clear(edgeUsed)
			}
		}
	}
	// Degraded clones must route on CSR arrays: the guard compares
	// vertex, processor and wire counts against the pristine build, and a
	// wire of multiplicity 2 standing in for a deleted one keeps the wire
	// count but not the neighbour-slot count.
	rng := rand.New(rand.NewSource(2))
	doubled := topology.Mesh(2, 3)
	g := multigraph.New(doubled.N())
	for i, ed := range doubled.Graph.Edges() {
		switch i {
		case 0:
			g.AddEdge(ed.U, ed.V, 2)
		case 1: // deleted
		default:
			g.AddEdge(ed.U, ed.V, ed.Mult)
		}
	}
	doubled.Graph = g
	unshaped := []*topology.Machine{
		topology.DeleteRandomEdges(topology.Mesh(2, 5), 0.2, rng),
		topology.DeleteRandomEdges(topology.WeakHypercube(4), 0.2, rng),
		doubled,
		// Machines with hub vertices or non-processor vertices must not match.
		topology.GlobalBus(8),
		topology.MeshOfTrees(2, 4),
		// Beyond MaxImplicitDim the next hop's coordinate scratch is too short.
		topology.Mesh(10, 2),
	}
	for _, m := range unshaped {
		if e := NewEngine(m, Greedy); e.geom != nil || e.nbrV == nil {
			t.Errorf("%s: routes on a generator, want CSR arrays", m.Name)
		}
	}
}

// NewShardedSim clamps nonsense shard counts instead of crashing, and
// Close is idempotent while leaving counters readable.
func TestShardedSimLifecycle(t *testing.T) {
	m := topology.Mesh(2, 4)
	e := NewEngine(m, Greedy)
	s := e.NewShardedSim(rand.New(rand.NewSource(1)), 999)
	if got := len(s.shards); got != m.Graph.N() {
		t.Errorf("shard count %d, want clamp to %d vertices", got, m.Graph.N())
	}
	s.Inject([]traffic.Message{{Src: 0, Dst: 15}})
	for s.InFlight() > 0 {
		s.Step()
	}
	delivered := s.Delivered()
	s.Close()
	s.Close() // idempotent
	if s.Delivered() != delivered {
		t.Errorf("counters changed across Close")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Step after Close did not panic")
		}
	}()
	s.Step()
}
