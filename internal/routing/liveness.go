package routing

import (
	"fmt"
	"sync/atomic"

	"repro/internal/topology"
)

// Dynamic-fault support: an Engine can mask wires and processors as dead
// mid-run and route around them, and a Sim can execute a
// topology.FaultSchedule while packets are in flight. Routing tables are
// masked lazily: every fault event invalidates the live distance cache and
// each destination's field is recomputed (on the surviving subgraph) the
// first time a packet needs it, so a machine that only ever routes to a few
// destinations after a fault pays only for those.
//
// Packets stranded by a fault — no live path from their current vertex to
// their target — are not lost immediately: they back off exponentially and
// retry, surviving transient partitions (a later heal restores the route).
// A per-packet retry budget and a TTL bound the wait; exhausting either
// counts the packet as dropped. The conservation invariant under faults is
//
//	injected = delivered + in-flight + dropped
//
// at every tick, which TestFaultConservationOnTable4Machines enforces.

// liveState is the engine's fault mask: per-directed-edge and per-vertex
// down flags plus a distance-field cache over the live subgraph, rebuilt
// lazily after every fault event.
type liveState struct {
	edgeDown []bool // per directed edge id
	nodeDown []bool // per vertex
	// distPtrs caches masked distance fields with atomic publication, the
	// same scheme as Engine.distPtrs: shards may warm it concurrently, a
	// racing recompute is identical, and ApplyFaultEvent (driver context,
	// between phases) swaps in a fresh array to invalidate.
	distPtrs     []atomic.Pointer[[]int]
	downDirEdges int
	downNodes    int
}

// EnableFaults switches the engine into liveness-aware routing. An engine
// with faults enabled belongs to the Sim driving it: the fault mask is
// engine state, so do not share it across concurrent or interleaved sims.
// Works on both representations; a machine under faults swaps its
// closed-form shape, if any, for masked BFS fields over its adjacency.
func (e *Engine) EnableFaults() {
	if e.live == nil {
		e.live = &liveState{
			edgeDown: make([]bool, e.numEdges),
			nodeDown: make([]bool, e.numVerts),
			distPtrs: make([]atomic.Pointer[[]int], e.numVerts),
		}
	}
}

// FaultsEnabled reports whether liveness-aware routing is on.
func (e *Engine) FaultsEnabled() bool { return e.live != nil }

// NodeDown reports whether vertex v is currently failed. Always false when
// faults are not enabled.
func (e *Engine) NodeDown(v int) bool { return e.live != nil && e.live.nodeDown[v] }

// DownCounts returns the number of directed edges and vertices currently
// masked dead.
func (e *Engine) DownCounts() (edges, nodes int) {
	if e.live == nil {
		return 0, 0
	}
	return e.live.downDirEdges, e.live.downNodes
}

// dirEdgeID returns the dense id of directed edge u->v, or -1 if absent.
func (e *Engine) dirEdgeID(u, v int) int32 {
	if e.geom != nil {
		found := int32(-1)
		base := int32(u * e.gDeg)
		e.geom.VisitNeighbors(u, func(slot, nb int) {
			if nb == v {
				found = base + int32(slot)
			}
		})
		return found
	}
	for id := e.edgeBase[u]; id < e.edgeBase[u+1]; id++ {
		if int(e.nbrV[id]) == v {
			return id
		}
	}
	return -1
}

func (e *Engine) setEdgeDown(u, v int, down bool) {
	for _, id := range [2]int32{e.dirEdgeID(u, v), e.dirEdgeID(v, u)} {
		if id < 0 {
			continue
		}
		if e.live.edgeDown[id] != down {
			e.live.edgeDown[id] = down
			if down {
				e.live.downDirEdges++
			} else {
				e.live.downDirEdges--
			}
		}
	}
}

// ApplyFaultEvent applies one materialized event to the mask: the listed
// wires and processors go down, or (Heal) every masked element recovers.
// The live distance cache is invalidated; fields are recomputed on demand.
func (e *Engine) ApplyFaultEvent(ev topology.FaultEvent) {
	e.EnableFaults()
	lv := e.live
	if ev.Heal {
		for i := range lv.edgeDown {
			lv.edgeDown[i] = false
		}
		for i := range lv.nodeDown {
			lv.nodeDown[i] = false
		}
		lv.downDirEdges, lv.downNodes = 0, 0
	}
	for _, ef := range ev.Edges {
		e.setEdgeDown(ef.U, ef.V, true)
	}
	for _, v := range ev.Nodes {
		if v < 0 || v >= len(lv.nodeDown) {
			panic(fmt.Sprintf("routing: fault event fails vertex %d of %d", v, len(lv.nodeDown)))
		}
		if !lv.nodeDown[v] {
			lv.nodeDown[v] = true
			lv.downNodes++
		}
	}
	lv.distPtrs = make([]atomic.Pointer[[]int], e.numVerts)
}

// liveDist returns the BFS distance field to dst over the live subgraph:
// masked wires and vertices do not exist, unreachable vertices get -1.
// Works on both representations — explicit machines walk the CSR arrays,
// implicit ones enumerate neighbours through the generator with the same
// slot-derived edge ids the hop fast paths use.
func (e *Engine) liveDist(dst int) []int {
	lv := e.live
	if p := lv.distPtrs[dst].Load(); p != nil {
		return *p
	}
	n := e.numVerts
	d := make([]int, n)
	for i := range d {
		d[i] = -1
	}
	if !lv.nodeDown[dst] {
		queue := make([]int, 0, n)
		d[dst] = 0
		queue = append(queue, dst)
		if e.geom != nil {
			var u int
			visit := func(slot, v int) {
				if d[v] >= 0 || lv.edgeDown[int32(u*e.gDeg+slot)] || lv.nodeDown[v] {
					return
				}
				d[v] = d[u] + 1
				queue = append(queue, v)
			}
			for len(queue) > 0 {
				u = queue[0]
				queue = queue[1:]
				e.geom.VisitNeighbors(u, visit)
			}
		} else {
			for len(queue) > 0 {
				u := queue[0]
				queue = queue[1:]
				for id := e.edgeBase[u]; id < e.edgeBase[u+1]; id++ {
					v := int(e.nbrV[id])
					if d[v] >= 0 || lv.edgeDown[id] || lv.nodeDown[v] {
						continue
					}
					d[v] = d[u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	lv.distPtrs[dst].Store(&d)
	return d
}

// FaultOptions tunes how a Sim treats packets stranded by faults.
type FaultOptions struct {
	// RetryBudget is the number of reroute attempts a stranded packet may
	// make before it is dropped. Default 8.
	RetryBudget int
	// BackoffBase is the tick count of the first backoff; each further
	// retry doubles it (capped at 1024 ticks). Default 2.
	BackoffBase int
	// TTL is the maximum age in ticks a packet may reach before it is
	// dropped regardless of retries. Default 512.
	TTL int
}

func (o FaultOptions) withDefaults() FaultOptions {
	if o.RetryBudget < 1 {
		o.RetryBudget = 8
	}
	if o.RetryBudget > 64 {
		o.RetryBudget = 64
	}
	if o.BackoffBase < 1 {
		o.BackoffBase = 2
	}
	if o.TTL < 1 {
		o.TTL = 512
	}
	return o
}

// faultState is the Sim side of a fault run: the schedule cursor and the
// resilience knobs.
type faultState struct {
	sched *topology.FaultSchedule
	opts  FaultOptions
	next  int // next unapplied event index
}

// SetFaults arms the sim with a materialized fault schedule: events fire at
// the start of the tick they are keyed to (events keyed before the current
// tick fire immediately on the next Step). Enables liveness-aware routing
// on the engine, which then belongs to this sim. The zero FaultOptions
// takes the documented defaults.
func (s *Sim) SetFaults(sched *topology.FaultSchedule, opts FaultOptions) {
	if sched == nil {
		panic("routing: SetFaults with nil schedule")
	}
	s.eng.EnableFaults()
	s.faults = &faultState{sched: sched, opts: opts.withDefaults()}
}

// Dropped returns the number of packets lost to faults: queued at a
// processor when it died, addressed to a dead endpoint, or stranded past
// their retry budget or TTL.
func (s *Sim) Dropped() int { return s.dropped }

// Retried returns the total number of stranded-packet retry events.
func (s *Sim) Retried() int { return s.retried }

// applyFaultEvents fires every schedule event due at or before the current
// tick, then reaps packets the new mask orphans.
func (s *Sim) applyFaultEvents() {
	fs := s.faults
	applied := false
	for fs.next < len(fs.sched.Events) && fs.sched.Events[fs.next].Tick <= s.now {
		s.eng.ApplyFaultEvent(fs.sched.Events[fs.next])
		fs.next++
		applied = true
	}
	if applied {
		s.reapDeadPackets()
	}
}

// reapDeadPackets drops every packet queued at a dead processor and every
// packet whose final destination died; Valiant packets that lost only
// their intermediate are retargeted at their destination instead. Queues
// are filtered in place with the same chunk-cursor compaction move uses.
// Emptied vertices stay on the active list until the next move phase
// drains them (move tolerates n == 0 entries).
func (s *Sim) reapDeadPackets() {
	lv := s.eng.live
	for _, sh := range s.shards {
		for _, u := range sh.active {
			q := &s.vq[u]
			qn := int(q.n)
			if qn == 0 {
				continue
			}
			if lv.nodeDown[u] {
				// A dead processor loses its queue wholesale.
				s.dropped += qn
				s.droppedTick += qn
				sh.qfree(q)
				continue
			}
			rci, wci := q.head, q.head
			rC, wC := sh.chunk(rci), sh.chunk(rci)
			ri, wi := 0, 0
			kept := 0
			for i := 0; i < qn; i++ {
				if ri == qChunkCap {
					rci = rC.next
					rC = sh.chunk(rci)
					ri = 0
				}
				p := rC.p[ri]
				ri++
				if lv.nodeDown[p.finalDst] {
					s.dropped++
					s.droppedTick++
					continue
				}
				if p.phase1 && lv.nodeDown[p.dst] {
					// The Valiant intermediate died; head straight for the
					// destination.
					p.phase1 = false
					p.dst = p.finalDst
				}
				if wi == qChunkCap {
					wci = wC.next
					wC = sh.chunk(wci)
					wi = 0
				}
				wC.p[wi] = p
				wi++
				kept++
			}
			q.n = int32(kept)
			if kept == 0 {
				sh.qfree(q)
			} else {
				fc := wC.next
				wC.next = -1
				q.tail = wci
				sh.freeChain(fc)
			}
		}
	}
}

// backoffTicks returns the exponential backoff for the given retry number,
// capped at 1024 ticks.
func backoffTicks(base int, retries uint8) int {
	shift := int(retries) - 1
	if shift > 10 {
		shift = 10
	}
	b := base << shift
	if b > 1024 {
		b = 1024
	}
	return b
}
