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
// An engine routes on exactly one adjacency form. Pristine hypercubes,
// meshes and tori — implicit machines built with
// topology.ImplicitWeakHypercube and friends, and materialized machines
// that are exact copies of one — route on their generator, which computes
// neighbours on the fly (the difference between a dim-20 hypercube being
// simulable or not) and gives a closed-form fault-free next hop from
// coordinates or bits, without a distance field or a neighbour list. Every
// other machine routes on CSR arrays and BFS distance fields. Under faults
// every machine routes on BFS fields over the live subgraph its Sim's fault
// mask leaves; the engine itself holds no run state. All of these produce
// byte-identical results; see pickHop and DESIGN.md.
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

// geomKind tags the closed-form next-hop fast paths of a generator engine.
type geomKind int

const (
	geomHypercube geomKind = iota
	geomMesh
	geomTorus
)

// Engine simulates packet routing on one machine. It caches per-destination
// distance fields and retired sims, so reuse one Engine across batches on
// the same machine. It holds no run state: faults live on the Sim that
// runs them, so concurrent runs, faulted or not, may share one engine.
type Engine struct {
	M        *topology.Machine
	Strategy Strategy

	// CSR adjacency (nil on a generator engine): slot j in
	// [edgeBase[u], edgeBase[u+1]) holds neighbour nbrV[j] with wire
	// multiplicity nbrMult[j], neighbours ascending — directed edge id j.
	// Sim uses the ids to keep per-tick wire usage in a flat array.
	nbrV     []int32
	nbrMult  []int64
	edgeBase []int32

	// distPtrs caches a CSR engine's fault-free per-destination BFS
	// distance fields. Lazily filled with atomic publication so concurrent
	// shards and runs can warm it without locks: a racing recompute
	// produces the identical field (BFS is deterministic) and the last
	// store wins. Nil on a generator engine, whose fault-free next hop is
	// closed-form; faulted runs keep their fields in their Sim's mask.
	distPtrs []atomic.Pointer[[]int]

	// Generator adjacency (nil on a CSR engine): the generator of a
	// pristine hypercube, mesh or torus, an implicit machine's own or the
	// one explicitShape finds a materialized machine to be. Neighbours are
	// generated, and directed edge u->v gets id u*gDeg + rank(v),
	// order-isomorphic to CSR ids (both number edges by (u asc, v asc)), so
	// id-ordered tie-breaks agree with a CSR engine on the same machine.
	// gk..gStride unpack its parameters for the closed-form next hop.
	geom    *topology.Implicit
	gDeg    int // max degree = per-vertex edge-id stride
	gk      geomKind
	gDim    int    // mesh/torus dimension
	gSide   int    // mesh/torus side
	gRecip  uint64 // (2^64-1)/gSide, for divSide
	gStride [topology.MaxImplicitDim]int

	// caps[v] is v's forwarding capacity (-1 unlimited); nil when the
	// machine has no capped vertex, so the hot path skips the lookup.
	caps []int64

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
// Closed sims are ignored; sims that overflow the pool are closed instead.
func (e *Engine) releaseSim(s *Sim) {
	if s.closed {
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

// NewEngine returns an engine for m using the given strategy. Pristine
// hypercubes, meshes and tori route on their generator, every other
// machine on CSR arrays.
func NewEngine(m *topology.Machine, strategy Strategy) *Engine {
	gen := m.Implicit
	if gen == nil {
		gen = explicitShape(m)
	}
	return newEngine(m, strategy, gen)
}

// newEngine returns an engine that routes on gen, or on CSR arrays built
// from m's graph when gen is nil — the BFS-field reference the tests hold
// the closed-form next hop to.
func newEngine(m *topology.Machine, strategy Strategy, gen *topology.Implicit) *Engine {
	e := &Engine{M: m, Strategy: strategy}
	if gen != nil {
		e.geom = gen
		e.numVerts = gen.N()
		e.gDeg = gen.MaxDeg()
		e.numEdges = e.numVerts * e.gDeg
		if _, ok := gen.Hypercube(); !ok {
			dim, side, wrap, _ := gen.Grid()
			e.gk, e.gDim, e.gSide = geomMesh, dim, side
			e.gRecip = ^uint64(0) / uint64(side)
			if wrap {
				e.gk = geomTorus
			}
			stride := 1
			for d := 0; d < dim; d++ {
				e.gStride[d] = stride
				stride *= side
			}
		}
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
	}
	if m.VertexCap != nil || m.UniformCap > 0 {
		e.caps = make([]int64, e.numVerts)
		for v := range e.caps {
			e.caps[v] = m.Cap(v)
		}
	}
	return e
}

// explicitShape returns the generator a materialized machine is, or nil.
// The family, dimension and vertex count name the candidate the way
// topology.BuildImplicit names a machine — a hypercube (weak or strong:
// caps are not part of the graph), mesh or torus of dimension at most
// MaxImplicitDim, the length of the next hop's coordinate scratch. The
// machine must also keep every processor and wire of that build, each
// wire of multiplicity 1 (as many distinct edges as wires): topology's
// degraded clones only ever delete, so equal counts mean nothing was
// deleted, and the generator then enumerates the graph's own neighbours.
// Degraded clones and higher-dimensional meshes route on CSR arrays.
func explicitShape(m *topology.Machine) *topology.Implicit {
	g := m.Graph
	n := g.N()
	if m.Procs != n || !topology.ImplicitSupported(m.Family) ||
		m.Family != topology.WeakHypercubeFamily && (m.Dim < 1 || m.Dim > topology.MaxImplicitDim) {
		return nil
	}
	tw, err := topology.BuildImplicit(m.Family, m.Dim, n)
	if err != nil || tw.N() != n || tw.EdgeCount() != g.E() || int64(g.DistinctEdges()) != g.E() {
		return nil
	}
	return tw.Implicit
}

// neighbors returns u's neighbours in ascending vertex-id order and the id
// of u's first out-edge; the neighbour at index i leaves u on edge
// base+i. CSR engines return a view of their arrays. Generator engines
// append the generator's output to buf, so a caller that passes a stack
// buffer of topology.MaxImplicitDegree entries allocates nothing.
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
// first use: in the engine's cache when fs is nil, in the fault mask's
// otherwise. Under a mask, dead wires and processors do not exist and
// vertices cut off from dst get -1. Safe for concurrent shards:
// publication is atomic and a racing duplicate compute yields the
// identical deterministic field.
func (e *Engine) dist(dst int, fs *faultState) []int {
	fields := e.distPtrs
	if fs != nil {
		fields = fs.fields
	}
	if fields == nil {
		// Fault-free generator engines take the closed-form next hop; a
		// BFS field would be an O(N) allocation bug, not a fallback.
		panic("routing: BFS distance field requested on a fault-free generator engine")
	}
	if p := fields[dst].Load(); p != nil {
		return *p
	}
	d := make([]int, e.numVerts)
	for i := range d {
		d[i] = -1
	}
	if !fs.down(dst) {
		var buf [topology.MaxImplicitDegree]int32
		queue := make([]int32, 1, e.numVerts)
		queue[0] = int32(dst)
		d[dst] = 0
		for h := 0; h < len(queue); h++ {
			u := int(queue[h])
			nbrs, base := e.neighbors(u, buf[:0])
			for i, v := range nbrs {
				if d[v] >= 0 || fs != nil && (fs.edgeDown[base+int32(i)] || fs.nodeDown[v]) {
					continue
				}
				d[v] = d[u] + 1
				queue = append(queue, v)
			}
		}
	}
	fields[dst].Store(&d)
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
// which is what makes concurrent shards safe. fs is the running sim's
// fault mask, nil on a fault-free run.
//
// Fault-free generator engines take the closed-form fast paths, which read
// neither a distance field nor a neighbour list. Everything else walks u's
// neighbours against a BFS distance field, skipping dead wires under
// faults. Every path enumerates the candidates in the same order —
// neighbours ascending by vertex id — and spends exactly one reservoir
// draw per unsaturated downhill neighbour, so the decision streams (and
// therefore all results) are identical across adjacency forms, faulted
// masks with nothing down, serial and sharded runs.
func (e *Engine) pickHop(u, dst int, edgeUsed []int32, vr *vrand, fs *faultState) (int, int32) {
	if fs == nil && e.geom != nil {
		if e.gk == geomHypercube {
			return e.pickHopHypercube(u, dst, edgeUsed, vr)
		}
		return e.pickHopGrid(u, dst, edgeUsed, vr)
	}
	d := e.dist(dst, fs)
	du := d[u] - 1
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
		if fs != nil && fs.edgeDown[id] || int64(edgeUsed[id]) >= e.mult(id) {
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
// low-to-high), with edge ids u·gDeg plus the bit ranks — no adjacency
// memory touched at all.
func (e *Engine) pickHopHypercube(u, dst int, edgeUsed []int32, vr *vrand) (int, int32) {
	base := int32(u * e.gDeg)
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
// every existing neighbour, downhill or not, so u·gDeg plus the slot is
// the edge id; a mesh boundary vertex leaves its last slots unused.
// Coordinates come from divSide, a multiply-high, not a division.
func (e *Engine) pickHopGrid(u, dst int, edgeUsed []int32, vr *vrand) (int, int32) {
	base := int32(u * e.gDeg)
	dim, side := e.gDim, e.gSide
	var cu, cv [topology.MaxImplicitDim]int
	x, y := u, dst
	for d := 0; d < dim; d++ {
		x, cu[d] = divSide(x, side, e.gRecip)
		y, cv[d] = divSide(y, side, e.gRecip)
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

// divSide returns x/side and x%side for 0 <= x < 2^32 and 1 <= side < 2^32,
// given recip = (2^64-1)/side: one multiply-high and one multiply instead
// of two divisions. Write recip = (2^64-e)/side with 1 <= e <= side and
// x = q·side + r. Then recip·(x+1)/2^64 = q + (r+1)/side - e(x+1)/(side·2^64),
// and the last term is positive and below 1/side because e(x+1) < 2^64,
// so the high word is exactly q. (Lemire, Kaser & Kurz 2019 multiply x by
// the rounded-up reciprocal instead, which overflows 64 bits at side 1;
// rounding down and multiplying x+1, after Robison 2005, keeps side 1.)
func divSide(x, side int, recip uint64) (q, r int) {
	hi, _ := bits.Mul64(recip, uint64(x)+1)
	q = int(hi)
	return q, x - q*side
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
