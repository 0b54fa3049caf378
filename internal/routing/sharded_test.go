package routing

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/multigraph"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The sharding determinism contract (ISSUE acceptance): a sim partitioned
// across any number of shards — and under any partition shape — produces
// results bit-for-bit identical to the serial sim. These tests drive every
// Table 4 machine through instrumented open loops, with and without a
// fault schedule, and compare both the OpenLoopResult and the full
// snapshot JSON byte-for-byte.

var equivalenceFaultSpec = topology.MustParseFaultSpec("edges:0.15@t20,nodes:2@t40,heal@t60")

// shardedRun drives one instrumented open loop on a fresh engine at the
// given shard count and returns the result plus the snapshot JSON. With
// bfs set the engine's shape is cleared, so an explicit machine routes
// through the CSR + BFS-field path instead of the closed-form next hop —
// the independent implementation the representation contract compares
// against.
func shardedRun(t *testing.T, m *topology.Machine, shards int, faults, bfs bool) (OpenLoopResult, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	e := NewEngine(m, Greedy)
	if bfs {
		e.setShape(nil)
	}
	e.Shards = shards
	dist := traffic.NewSymmetric(m.N())
	var res OpenLoopResult
	var snap Snapshot
	if faults {
		sched := equivalenceFaultSpec.Materialize(m, rng)
		res, snap = e.OpenLoopFaultsSnapshot(dist, 3, 80, rng, 8, sched, FaultOptions{})
	} else {
		res, snap = e.OpenLoopSnapshot(dist, 3, 80, rng, 8)
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// ISSUE acceptance: the full equivalence matrix. For every Table 4
// machine (plus the strong hypercube, an odd-side torus and a mesh at the
// implicit generators' dimension limit) the reference is the serial
// explicit run through the CSR + BFS-field path. Every shard count in
// {1, 2, 4, 7}, every available representation (explicit CSR, and the
// implicit generator for weak-hypercube/mesh/torus machines), with and
// without a fault schedule, must reproduce its OpenLoopResult and snapshot
// JSON byte-for-byte. On hypercubes, meshes and tori both representations
// take the closed-form next hop while fault-free, so the BFS-field
// reference is what keeps this a comparison of two independent
// implementations rather than a tautology.
func TestShardedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	machines := append(table4Machines(rng), topology.StrongHypercube(4), topology.Torus(3, 3), topology.Mesh(topology.MaxImplicitDim, 2))
	for _, m := range machines {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			reps := []*topology.Machine{m}
			if tw, ok := topology.ImplicitTwin(m); ok && tw != m {
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
// explicit run and a sharded implicit run, both on the closed-form next
// hop, against the serial CSR + BFS-field reference, and builds the
// million-vertex instances the implicit representation exists for.
func TestImplicitEquivalenceLargeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large equivalence smoke skipped in -short mode")
	}
	m := topology.WeakHypercube(14)
	tw, ok := topology.ImplicitTwin(m)
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

// The partition shape must be as irrelevant as the shard count: a BFS
// partition assigns completely different vertex sets to each worker than
// the contiguous default, and the results must still match serial bytes.
func TestShardedEquivalenceBFSPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	machines := []*topology.Machine{
		topology.Mesh(2, 6),
		topology.Butterfly(3),
		topology.Expander(24, 4, rng),
	}
	drive := func(s *Sim, m *topology.Machine) []byte {
		defer s.Close()
		s.EnableStats()
		dist := traffic.NewSymmetric(m.N())
		for tick := 0; tick < 60; tick++ {
			s.InjectSampled(dist, 3)
			s.Step()
		}
		snap := s.Snapshot(8)
		var buf bytes.Buffer
		if err := snap.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, m := range machines {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			eSerial := NewEngine(m, Greedy)
			want := drive(eSerial.NewSim(rand.New(rand.NewSource(5))), m)
			for _, k := range []int{2, 3, 5} {
				assign := topology.BFSPartition(m.Graph, k)
				ePart := NewEngine(m, Greedy)
				got := drive(ePart.NewPartitionedSim(rand.New(rand.NewSource(5)), assign), m)
				if !bytes.Equal(got, want) {
					t.Errorf("BFS partition k=%d diverged from serial", k)
				}
			}
		})
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

// The closed-form shape must be installed on exactly the pristine
// hypercubes, meshes and tori of dimension at most MaxImplicitDim, in
// either representation, and agree with BFS exactly there: its distances
// are FarthestFirst's keys, and a fault-free run on it must never build a
// BFS field. Degraded clones, non-geometric machines and higher-
// dimensional meshes must not get one.
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
		if e.shape == nil || e.gk != c.kind {
			t.Errorf("%s (implicit=%v): shape %v kind %d, want kind %d", m.Name, m.Implicit != nil, e.shape, e.gk, c.kind)
			continue
		}
		g := m.Materialize().Graph
		for dst := 0; dst < g.N(); dst++ {
			d := g.BFS(dst)
			for u := range d {
				if got := e.distance(u, dst); got != d[u] {
					t.Fatalf("%s: distance(%d,%d) = %d, BFS says %d", m.Name, u, dst, got, d[u])
				}
			}
		}
		if m.Implicit != nil {
			continue
		}
		e.Discipline = FarthestFirst
		e.OpenLoop(traffic.NewSymmetric(m.N()), 3, 40, rand.New(rand.NewSource(1)))
		for dst := range e.distPtrs {
			if e.distPtrs[dst].Load() != nil {
				t.Fatalf("%s: fault-free run on the closed-form path built the BFS field of %d", m.Name, dst)
			}
		}
	}
	// Degraded clones must fall back to BFS fields: the guard compares
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
		if e := NewEngine(m, Greedy); e.shape != nil || e.gk != geomNone {
			t.Errorf("%s: unexpected closed-form shape", m.Name)
		}
	}
}

// NewShardedSim clamps nonsense shard counts instead of crashing, and
// Close is idempotent while leaving counters readable.
func TestShardedSimLifecycle(t *testing.T) {
	m := topology.Mesh(2, 4)
	e := NewEngine(m, Greedy)
	s := e.NewShardedSim(rand.New(rand.NewSource(1)), 999)
	if got := s.ShardCount(); got != m.Graph.N() {
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

// BFSPartition must produce balanced, complete partitions, and on a ring
// its connected regions cut far fewer edges than a round-robin assignment
// would.
func TestBFSPartitionShape(t *testing.T) {
	m := topology.Ring(30)
	for _, k := range []int{1, 2, 3, 7} {
		assign := topology.BFSPartition(m.Graph, k)
		counts := make(map[int]int)
		for _, sh := range assign {
			counts[sh]++
		}
		if len(counts) != k {
			t.Fatalf("k=%d: %d regions", k, len(counts))
		}
		for sh, c := range counts {
			if c < 30/k || c > 30/k+1 {
				t.Errorf("k=%d: region %d has %d vertices", k, sh, c)
			}
		}
	}
	if cut := topology.PartitionCutEdges(m.Graph, topology.BFSPartition(m.Graph, 3)); cut != 3 {
		t.Errorf("ring cut by 3 BFS regions crosses %d edges, want 3", cut)
	}
}
