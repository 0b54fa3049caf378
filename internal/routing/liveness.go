package routing

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/topology"
)

// Dynamic-fault support: an Engine can mask wires and processors as dead
// mid-run and route around them, and a Sim can execute a
// topology.FaultSchedule while packets are in flight. Routing tables are
// masked lazily: every fault event invalidates the engine's distance-field
// cache and each destination's field is recomputed (on the surviving
// subgraph) the first time a packet needs it, so a machine that only ever
// routes to a few destinations after a fault pays only for those.
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
// down flags. The distance fields routed on under faults live in the
// engine's one field cache, which every fault event swaps out.
type liveState struct {
	edgeDown []bool // per directed edge id
	nodeDown []bool // per vertex
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
		}
		e.distPtrs = make([]atomic.Pointer[[]int], e.numVerts)
	}
}

// NodeDown reports whether vertex v is currently failed. Always false when
// faults are not enabled.
func (e *Engine) NodeDown(v int) bool { return e.live != nil && e.live.nodeDown[v] }

// dirEdgeID returns the dense id of directed edge u->v, or -1 if absent.
func (e *Engine) dirEdgeID(u, v int) int32 {
	var buf [topology.MaxImplicitDegree]int32
	nbrs, base := e.neighbors(u, buf[:0])
	for i, w := range nbrs {
		if int(w) == v {
			return base + int32(i)
		}
	}
	return -1
}

func (e *Engine) setEdgeDown(u, v int, down bool) {
	for _, id := range [2]int32{e.dirEdgeID(u, v), e.dirEdgeID(v, u)} {
		if id < 0 {
			continue
		}
		e.live.edgeDown[id] = down
	}
}

// ApplyFaultEvent applies one materialized event to the mask: the listed
// wires and processors go down, or (Heal) every masked element recovers.
// The engine's distance-field cache is swapped for an empty one; fields are
// recomputed on demand over the live subgraph.
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
	}
	for _, ef := range ev.Edges {
		e.setEdgeDown(ef.U, ef.V, true)
	}
	for _, v := range ev.Nodes {
		if v < 0 || v >= len(lv.nodeDown) {
			panic(fmt.Sprintf("routing: fault event fails vertex %d of %d", v, len(lv.nodeDown)))
		}
		lv.nodeDown[v] = true
	}
	e.distPtrs = make([]atomic.Pointer[[]int], e.numVerts)
}

// Stranded-packet resilience. A stranded packet may make retryBudget
// reroute attempts; the first backs off backoffBase ticks and each further
// one doubles the wait, so the last waits backoffBase<<(retryBudget-1) =
// 256 ticks. A packet older than faultTTL ticks is dropped regardless of
// retries.
const (
	retryBudget = 8
	backoffBase = 2
	faultTTL    = 512
)

// faultState is the Sim side of a fault run: the schedule cursor.
type faultState struct {
	sched *topology.FaultSchedule
	next  int // next unapplied event index
}

// SetFaults arms the sim with a materialized fault schedule: events fire at
// the start of the tick they are keyed to (events keyed before the current
// tick fire immediately on the next Step). Enables liveness-aware routing
// on the engine, which then belongs to this sim.
func (s *Sim) SetFaults(sched *topology.FaultSchedule) {
	if sched == nil {
		panic("routing: SetFaults with nil schedule")
	}
	s.eng.EnableFaults()
	s.faults = &faultState{sched: sched}
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
// are filtered in place, and a vertex whose queue empties leaves its
// shard's active bitset.
func (s *Sim) reapDeadPackets() {
	lv := s.eng.live
	for _, sh := range s.shards {
		for w, word := range sh.active {
			for ; word != 0; word &= word - 1 {
				b := bits.TrailingZeros64(word)
				u := sh.lo + w<<6 + b
				q := s.vq[u]
				kept := q[:0]
				for _, p := range q {
					// A dead processor loses its whole queue, a dead
					// destination its own packets.
					if lv.nodeDown[u] || lv.nodeDown[p.finalDst] {
						s.dropped++
						s.droppedTick++
						continue
					}
					if p.phase1 && lv.nodeDown[p.dst] {
						// The Valiant intermediate died; head straight for
						// the destination.
						p.phase1 = false
						p.dst = p.finalDst
					}
					kept = append(kept, p)
				}
				s.vq[u] = kept
				if len(kept) == 0 {
					sh.active[w] &^= 1 << b
				}
			}
		}
	}
}

// backoffTicks returns the exponential backoff for the given retry number
// (1 to retryBudget).
func backoffTicks(retries uint8) int {
	return backoffBase << (retries - 1)
}
