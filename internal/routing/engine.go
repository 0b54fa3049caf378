// Package routing simulates synchronous store-and-forward packet routing on
// a network machine, the operational model behind the paper's bandwidth
// definition: β(M, π) is the expected average delivery rate m/r(m) when m
// messages drawn from traffic distribution π are routed on M.
//
// Model (one tick = one machine step):
//   - each undirected wire of multiplicity w carries up to w messages per
//     tick in each direction;
//   - a vertex with a forwarding cap (the global-bus hub, every vertex of
//     the weak one-port hypercube) transmits at most that many messages per
//     tick in total;
//   - queues are unbounded; a message blocked on a full wire waits, while
//     later messages bound for other wires may pass it (virtual channels).
//
// Routing is greedy hop-by-hop along breadth-first shortest paths with
// random tie-breaking, optionally Valiant-style through a random
// intermediate vertex. On the machines considered this meets the
// O(congestion + dilation) bound of the universal routing scheme the paper
// cites, which is all the Θ-level measurements need.
//
// The engine routes on either adjacency representation: a materialized
// multigraph flattened into CSR arrays, or (for hypercube/mesh/torus
// machines built with topology.ImplicitWeakHypercube and friends) a
// generator that computes neighbours on the fly — the difference between a
// dim-20 hypercube being simulable or not. On hypercubes, meshes and tori
// the fault-free next hop is closed-form in both representations: the
// engine holds the machine's generator as its shape and picks the hop from
// coordinates or bits, without a distance field or a neighbour list. Every
// other machine, and every machine under faults, routes on BFS distance
// fields. All of these produce byte-identical results; see pickHop and
// DESIGN.md.
//
// The simulator can run sharded: the vertex set is partitioned across k
// goroutines that exchange boundary packets through per-shard mailboxes
// under an epoch-counter pipeline per tick. Results are bit-for-bit
// identical to the serial run at every shard count (see shard.go and
// DESIGN.md for the contract).
package routing

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/topology"
	"repro/internal/traffic"
)

// Strategy selects how routes are chosen.
type Strategy int

const (
	// Greedy routes every message along shortest paths to its destination
	// with random tie-breaking per hop.
	Greedy Strategy = iota
	// Valiant routes each message to a uniformly random intermediate
	// processor first, then to its destination — the classic two-phase
	// scheme that turns worst-case permutations into average-case traffic.
	Valiant
)

func (s Strategy) String() string {
	switch s {
	case Greedy:
		return "greedy"
	case Valiant:
		return "valiant"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// geomKind tags the closed-form next-hop fast paths.
type geomKind int

const (
	geomNone geomKind = iota
	geomHypercube
	geomMesh
	geomTorus
)

// Engine simulates packet routing on one machine. It caches per-destination
// distance fields, so reuse one Engine across batches on the same machine.
type Engine struct {
	M        *topology.Machine
	Strategy Strategy

	// distPtrs caches per-destination BFS distance fields, over the live
	// subgraph once faults are enabled. Lazily filled with atomic
	// publication so concurrent shards can warm it without locks: a racing
	// recompute produces the identical field (BFS is deterministic) and the
	// last store wins. EnableFaults and every fault event swap in a fresh
	// array (driver context, between phases). Nil for fault-free implicit
	// machines, whose next hop is always closed-form, and never filled
	// while a fault-free explicit machine has a shape.
	distPtrs []atomic.Pointer[[]int]

	// Explicit adjacency, flattened CSR-style (nil for implicit machines):
	// slot j in [edgeBase[u], edgeBase[u+1]) holds neighbour nbrV[j] with
	// wire multiplicity nbrMult[j], neighbours ascending — directed edge id
	// j. Sim uses the ids to keep per-tick wire usage in a flat array.
	nbrV     []int32
	nbrMult  []int64
	edgeBase []int32

	// Implicit adjacency (geom != nil): neighbours are generated, and
	// directed edge u->v gets id u*gDeg + rank(v), order-isomorphic to the
	// CSR ids of the explicit twin (both number edges by (u asc, v asc)),
	// so id-ordered tie-breaks agree between representations.
	geom *topology.Implicit
	gDeg int // max degree = per-vertex edge-id stride

	// shape, when non-nil, is the generator of the machine's fault-free
	// graph, whichever representation holds the adjacency: an implicit
	// machine's own generator, or the one explicitShape finds a pristine
	// materialized hypercube, mesh or torus to be. It supplies the
	// closed-form next hop, replacing O(N) BFS fields whose
	// all-destination warmup is O(N^2) memory; setShape unpacks its
	// parameters into gk..gStride. Faulted routing falls back to masked
	// BFS fields. Nil selects the CSR +
	// BFS-field path, the reference the representation tests compare the
	// closed forms against.
	shape   *topology.Implicit
	gk      geomKind
	gDim    int // mesh/torus dimension
	gSide   int // mesh/torus side
	gStride [topology.MaxImplicitDim]int

	// caps[v] is v's forwarding capacity (-1 unlimited); nil when the
	// machine has no capped vertex, so the hot path skips the lookup.
	caps []int64

	// live is nil until EnableFaults: liveness-aware routing (masked
	// distance fields, dead-wire skipping) costs the fault-free hot path
	// nothing beyond a nil check.
	live *liveState

	// simFree pools retired sims for reuse via acquireSim/releaseSim, so
	// repeated measurements on one engine (open-loop bisection, warm
	// sweeps) recycle the queues' backing arrays and per-vertex tables
	// instead of reallocating ~N words per run.
	simMu   sync.Mutex
	simFree []*Sim

	numVerts int
	numEdges int // directed edge id space (CSR slots, or numVerts*gDeg)
}

// simPoolCap bounds the retired sims kept per engine. Matching on shard
// count means a shard-heterogeneous caller can hold a few variants; beyond
// the cap, extra sims are closed rather than hoarded.
const simPoolCap = 4

// acquireSim returns a sim sharded the given number of ways (clamped like
// NewShardedSim), recycling a pooled one when a retired sim with the same
// shard count exists. The recycled sim is Reset on rng, so results are
// byte-identical to a fresh NewShardedSim — pooling is purely an allocation
// optimization. Pair with releaseSim (or Close).
func (e *Engine) acquireSim(rng *rand.Rand, shards int) *Sim {
	if shards < 1 {
		shards = 1
	}
	if shards > e.numVerts {
		shards = e.numVerts
	}
	e.simMu.Lock()
	for i := len(e.simFree) - 1; i >= 0; i-- {
		s := e.simFree[i]
		if len(s.shards) == shards {
			e.simFree[i] = e.simFree[len(e.simFree)-1]
			e.simFree = e.simFree[:len(e.simFree)-1]
			e.simMu.Unlock()
			s.Reset(rng)
			return s
		}
	}
	e.simMu.Unlock()
	return e.NewShardedSim(rng, shards)
}

// releaseSim retires a sim into the engine's pool for a later acquireSim.
// Closed sims are ignored; sims that ran a fault schedule, or overflow the
// pool, are closed instead of pooled.
func (e *Engine) releaseSim(s *Sim) {
	if s.closed {
		return
	}
	if s.faults != nil {
		s.Close()
		return
	}
	e.simMu.Lock()
	if len(e.simFree) < simPoolCap {
		e.simFree = append(e.simFree, s)
		e.simMu.Unlock()
		return
	}
	e.simMu.Unlock()
	s.Close()
}

// NewEngine returns an engine for m using the given strategy.
func NewEngine(m *topology.Machine, strategy Strategy) *Engine {
	e := &Engine{M: m, Strategy: strategy}
	if im := m.Implicit; im != nil {
		e.geom = im
		e.numVerts = im.N()
		e.gDeg = im.MaxDeg()
		e.numEdges = e.numVerts * e.gDeg
		e.setShape(im)
	} else {
		g := m.Graph
		e.numVerts = g.N()
		e.edgeBase = make([]int32, g.N()+1)
		for u := 0; u < g.N(); u++ {
			e.edgeBase[u] = int32(e.numEdges)
			e.numEdges += len(g.Neighbors(u))
		}
		e.edgeBase[g.N()] = int32(e.numEdges)
		e.nbrV = make([]int32, e.numEdges)
		e.nbrMult = make([]int64, e.numEdges)
		for u := 0; u < g.N(); u++ {
			j := e.edgeBase[u]
			for _, v := range g.Neighbors(u) { // sorted
				e.nbrV[j] = int32(v)
				e.nbrMult[j] = g.Multiplicity(u, v)
				j++
			}
		}
		e.distPtrs = make([]atomic.Pointer[[]int], g.N())
		e.setShape(e.explicitShape(m))
	}
	if m.VertexCap != nil || m.UniformCap > 0 {
		e.caps = make([]int64, e.numVerts)
		for v := range e.caps {
			e.caps[v] = m.Cap(v)
		}
	}
	return e
}

// setShape installs im as the engine's shape and unpacks the parameters
// the closed-form next hop reads; nil clears it, leaving the CSR +
// BFS-field path.
func (e *Engine) setShape(im *topology.Implicit) {
	e.shape, e.gk = im, geomNone
	if im == nil {
		return
	}
	if _, ok := im.Hypercube(); ok {
		e.gk = geomHypercube
		return
	}
	dim, side, wrap, _ := im.Grid()
	e.gk, e.gDim, e.gSide = geomMesh, dim, side
	if wrap {
		e.gk = geomTorus
	}
	stride := 1
	for d := 0; d < dim; d++ {
		e.gStride[d] = stride
		stride *= side
	}
}

// explicitShape returns the generator a materialized machine is, or nil.
// The family, dimension and vertex count name the candidate the way
// topology.BuildImplicit names a machine — a hypercube (weak or strong:
// caps are not part of the graph), mesh or torus of dimension at most
// MaxImplicitDim, the length of the next hop's coordinate scratch. The
// machine must also keep every processor and wire of that build, each
// wire of multiplicity 1 (2·E CSR slots): topology's degraded clones only
// ever delete, so equal counts mean nothing was deleted, and the
// closed-form next hop then makes the CSR loop's choices with its edge
// ids. Degraded clones and higher-dimensional meshes route on BFS fields.
func (e *Engine) explicitShape(m *topology.Machine) *topology.Implicit {
	n := e.numVerts
	if m.Procs != n || !topology.ImplicitSupported(m.Family) ||
		m.Family != topology.WeakHypercubeFamily && (m.Dim < 1 || m.Dim > topology.MaxImplicitDim) {
		return nil
	}
	tw, err := topology.BuildImplicit(m.Family, m.Dim, n)
	if err != nil || tw.N() != n || tw.EdgeCount() != m.Graph.E() || int64(e.numEdges) != 2*m.Graph.E() {
		return nil
	}
	return tw.Implicit
}

// neighbors returns u's neighbours in ascending vertex-id order and the id
// of u's first out-edge; the neighbour at index i leaves u on edge
// base+i. Explicit machines return a view of the CSR arrays. Implicit
// ones append the generator's output to buf, so a caller that passes a
// stack buffer of topology.MaxImplicitDegree entries allocates nothing.
// Every walk over a vertex's neighbours except the closed-form next hop
// goes through here.
func (e *Engine) neighbors(u int, buf []int32) ([]int32, int32) {
	if e.geom != nil {
		return e.geom.AppendNeighbors(buf, u), int32(u * e.gDeg)
	}
	base := e.edgeBase[u]
	return e.nbrV[base:e.edgeBase[u+1]], base
}

// mult returns the wire multiplicity of directed edge id: the number of
// packets it may carry per tick. Generated adjacency is simple.
func (e *Engine) mult(id int32) int64 {
	if e.nbrMult == nil {
		return 1
	}
	return e.nbrMult[id]
}

// edgeEnds recovers the (from, to) vertices of a directed edge id.
func (e *Engine) edgeEnds(id int32) (int, int) {
	if e.geom != nil {
		u := int(id) / e.gDeg
		return u, e.geom.Neighbor(u, int(id)%e.gDeg)
	}
	// Binary search the base offsets.
	lo, hi := 0, len(e.edgeBase)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if e.edgeBase[mid] <= id {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, int(e.nbrV[id])
}

// dist returns the BFS distance field to dst, computing and caching it on
// first use. Under faults, masked wires and processors do not exist and
// vertices cut off from dst get -1. Safe for concurrent shards:
// publication is atomic and a racing duplicate compute yields the
// identical deterministic field.
func (e *Engine) dist(dst int) []int {
	if e.distPtrs == nil {
		// Fault-free implicit machines route on their shape; a BFS field
		// would be an O(N) allocation bug, not a fallback.
		panic("routing: BFS distance field requested on an implicit machine without faults")
	}
	if p := e.distPtrs[dst].Load(); p != nil {
		return *p
	}
	lv := e.live
	d := make([]int, e.numVerts)
	for i := range d {
		d[i] = -1
	}
	if lv == nil || !lv.nodeDown[dst] {
		var buf [topology.MaxImplicitDegree]int32
		queue := make([]int32, 1, e.numVerts)
		queue[0] = int32(dst)
		d[dst] = 0
		for h := 0; h < len(queue); h++ {
			u := int(queue[h])
			nbrs, base := e.neighbors(u, buf[:0])
			for i, v := range nbrs {
				if d[v] >= 0 || lv != nil && (lv.edgeDown[base+int32(i)] || lv.nodeDown[v]) {
					continue
				}
				d[v] = d[u] + 1
				queue = append(queue, v)
			}
		}
	}
	e.distPtrs[dst].Store(&d)
	return d
}

// Stats reports the outcome of routing one batch.
type Stats struct {
	Messages  int     // batch size
	Ticks     int     // time to deliver the whole batch
	TotalHops int64   // wire traversals summed over messages
	MaxQueue  int     // largest per-vertex queue observed
	Rate      float64 // Messages / Ticks — the operational bandwidth sample
}

// Route injects the batch at tick 0 (every message waits at its source) and
// runs the machine on a sim sharded the given number of ways (0 or 1 =
// serial) until all messages are delivered, returning the stats. Messages
// whose source equals destination are rejected with a panic — the traffic
// package never produces them. The run recycles a pooled sim and never
// mutates the engine, so concurrent callers may share one; results are
// byte-identical at every shard count.
func (e *Engine) Route(batch []traffic.Message, rng *rand.Rand, shards int) Stats {
	if len(batch) == 0 {
		return Stats{}
	}
	s := e.acquireSim(rng, shards)
	defer e.releaseSim(s)
	s.Inject(batch)
	limit := 200*len(batch) + 100*e.numVerts + 1000
	for s.InFlight() > 0 {
		if s.Now() > limit {
			panic(fmt.Sprintf("routing: no progress after %d ticks (%d messages left) on %s",
				s.Now(), s.InFlight(), e.M.Name))
		}
		s.Step()
	}
	return Stats{
		Messages:  len(batch),
		Ticks:     s.Now(),
		TotalHops: s.totalHops,
		MaxQueue:  s.MaxQueue(),
		Rate:      float64(len(batch)) / float64(s.Now()),
	}
}

// pickHop chooses a neighbour of u one step closer to dst whose wire still
// has capacity this tick, uniformly among the available choices using u's
// per-tick decision stream. It returns the chosen vertex and its
// directed-edge id, or (-1, -1) if all downhill wires are saturated.
// edgeUsed is indexed by edge id; only edges out of u are read or written,
// which is what makes concurrent shards safe.
//
// Fault-free machines with a shape take the closed-form fast paths, which
// read neither a distance field nor a neighbour list; only the base of u's
// edge ids depends on the representation (u*gDeg for generated adjacency,
// edgeBase[u] for CSR). Everything else walks u's neighbours against a BFS
// distance field, skipping dead wires under faults. Every path enumerates
// the candidates in the same order — neighbours ascending by vertex id —
// and spends exactly one reservoir draw per unsaturated downhill
// neighbour, so the decision streams (and therefore all results) are
// identical across explicit, implicit, serial, and sharded runs.
func (e *Engine) pickHop(u, dst int, edgeUsed []int32, vr *vrand) (int, int32) {
	if e.shape != nil && e.live == nil {
		base := int32(u * e.gDeg)
		if e.edgeBase != nil {
			base = e.edgeBase[u]
		}
		if e.gk == geomHypercube {
			return e.pickHopHypercube(u, dst, base, edgeUsed, vr)
		}
		return e.pickHopGrid(u, dst, base, edgeUsed, vr)
	}
	d := e.dist(dst)
	du := d[u] - 1
	lv := e.live
	var buf [topology.MaxImplicitDegree]int32
	nbrs, base := e.neighbors(u, buf[:0])
	best := -1
	var bestEdge int32 = -1
	count := 0
	for i, v := range nbrs {
		if d[v] != du {
			continue
		}
		id := base + int32(i)
		if lv != nil && lv.edgeDown[id] || int64(edgeUsed[id]) >= e.mult(id) {
			continue
		}
		// Reservoir-sample uniformly among available downhill neighbours.
		count++
		if vr.intn(count) == 0 {
			best = int(v)
			bestEdge = id
		}
	}
	return best, bestEdge
}

// pickHopHypercube is pickHop for the fault-free hypercube: the downhill
// neighbours are the flips of the bits where u and dst differ, enumerated
// in ascending vertex-id order (set bits high-to-low, then clear bits
// low-to-high), with edge ids base plus the bit ranks — no adjacency
// memory touched at all.
func (e *Engine) pickHopHypercube(u, dst int, base int32, edgeUsed []int32, vr *vrand) (int, int32) {
	diff := uint(u ^ dst)
	pu := bits.OnesCount(uint(u))
	best := -1
	var bestEdge int32 = -1
	count := 0
	// Differing set bits, high to low: neighbours below u, ascending.
	for d := diff & uint(u); d != 0; {
		i := bits.Len(d) - 1
		d &^= 1 << i
		rank := pu - 1 - bits.OnesCount(uint(u)&(1<<i-1))
		id := base + int32(rank)
		if edgeUsed[id] < 1 {
			count++
			if vr.intn(count) == 0 {
				best = u ^ (1 << i)
				bestEdge = id
			}
		}
	}
	// Differing clear bits, low to high: neighbours above u, ascending.
	for d := diff &^ uint(u); d != 0; {
		i := bits.TrailingZeros(d)
		d &^= 1 << i
		rank := pu + i - bits.OnesCount(uint(u)&(1<<i-1))
		id := base + int32(rank)
		if edgeUsed[id] < 1 {
			count++
			if vr.intn(count) == 0 {
				best = u ^ (1 << i)
				bestEdge = id
			}
		}
	}
	return best, bestEdge
}

// pickHopGrid is pickHop for the fault-free mesh and torus. The mesh
// enumerates existing neighbours in closed ascending order (minus-steps by
// descending dimension, then plus-steps by ascending dimension); the
// torus, whose wraparound breaks that monotonicity, gathers its 2·dim
// neighbours into a stack array and insertion-sorts. Rank slots count
// every existing neighbour, downhill or not, so base plus the slot is the
// edge id in either representation — a mesh boundary vertex has fewer
// than 2·dim, which is why an explicit base is edgeBase[u], not u*gDeg.
func (e *Engine) pickHopGrid(u, dst int, base int32, edgeUsed []int32, vr *vrand) (int, int32) {
	dim, side := e.gDim, e.gSide
	var cu, cv [topology.MaxImplicitDim]int
	x, y := u, dst
	for d := 0; d < dim; d++ {
		cu[d] = x % side
		x /= side
		cv[d] = y % side
		y /= side
	}
	best := -1
	var bestEdge int32 = -1
	count := 0
	if e.gk == geomMesh {
		slot := int32(0)
		for d := dim - 1; d >= 0; d-- {
			if cu[d] == 0 {
				continue
			}
			if cu[d] > cv[d] {
				id := base + slot
				if edgeUsed[id] < 1 {
					count++
					if vr.intn(count) == 0 {
						best = u - e.gStride[d]
						bestEdge = id
					}
				}
			}
			slot++
		}
		for d := 0; d < dim; d++ {
			if cu[d] == side-1 {
				continue
			}
			if cu[d] < cv[d] {
				id := base + slot
				if edgeUsed[id] < 1 {
					count++
					if vr.intn(count) == 0 {
						best = u + e.gStride[d]
						bestEdge = id
					}
				}
			}
			slot++
		}
		return best, bestEdge
	}
	// Torus: both directions can be downhill in one dimension (even side,
	// antipodal coordinate), so each candidate carries its own flag.
	type cand struct {
		v    int32
		down bool
	}
	var cands [2 * topology.MaxImplicitDim]cand
	k := 0
	for d := 0; d < dim; d++ {
		dd := wrapDelta(cu[d]-cv[d], side)
		nc, v := cu[d]-1, u-e.gStride[d]
		if cu[d] == 0 {
			nc, v = side-1, u+(side-1)*e.gStride[d]
		}
		cands[k] = cand{int32(v), wrapDelta(nc-cv[d], side) == dd-1}
		k++
		nc, v = cu[d]+1, u+e.gStride[d]
		if cu[d] == side-1 {
			nc, v = 0, u-(side-1)*e.gStride[d]
		}
		cands[k] = cand{int32(v), wrapDelta(nc-cv[d], side) == dd-1}
		k++
	}
	for i := 1; i < k; i++ {
		c := cands[i]
		j := i - 1
		for j >= 0 && cands[j].v > c.v {
			cands[j+1] = cands[j]
			j--
		}
		cands[j+1] = c
	}
	for slot := 0; slot < k; slot++ {
		if !cands[slot].down {
			continue
		}
		id := base + int32(slot)
		if edgeUsed[id] >= 1 {
			continue
		}
		count++
		if vr.intn(count) == 0 {
			best = int(cands[slot].v)
			bestEdge = id
		}
	}
	return best, bestEdge
}

// wrapDelta is the per-dimension torus distance of a coordinate difference.
func wrapDelta(delta, side int) int {
	if delta < 0 {
		delta = -delta
	}
	if side-delta < delta {
		delta = side - delta
	}
	return delta
}
