package routing

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/topology"
)

// Dynamic-fault support: a Sim can execute a topology.FaultSchedule while
// packets are in flight, masking wires and processors as dead mid-run and
// routing around them. The mask is the sim's, never the engine's, so
// faulted and fault-free runs share one engine and its sim pool. Routing
// tables are masked lazily: every fault event empties the sim's
// distance-field cache and each destination's field is recomputed (on the
// surviving subgraph) the first time a packet needs it, so a machine that
// only ever routes to a few destinations after a fault pays only for those.
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

// faultState is a Sim's fault run: the schedule cursor and the fault mask
// the schedule drives — per-directed-edge and per-vertex down flags, and
// the BFS distance fields over the live subgraph. A nil *faultState is a
// fault-free run.
type faultState struct {
	sched *topology.FaultSchedule
	next  int // next unapplied event index

	edgeDown []bool // per directed edge id
	nodeDown []bool // per vertex

	// fields caches per-destination distance fields over the live
	// subgraph, filled like the engine's fault-free cache (atomic
	// publication, shard-safe) and swapped for an empty one by every fault
	// event (on the goroutine calling Step, between ticks).
	fields []atomic.Pointer[[]int]
}

// down reports whether vertex v is currently failed; always false on a
// fault-free run.
func (fs *faultState) down(v int) bool { return fs != nil && fs.nodeDown[v] }

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

// apply applies one materialized event to the mask: the listed wires and
// processors go down, or (Heal) every masked element recovers. The field
// cache is swapped for an empty one; fields are recomputed on demand over
// the live subgraph.
func (fs *faultState) apply(e *Engine, ev topology.FaultEvent) {
	if ev.Heal {
		clear(fs.edgeDown)
		clear(fs.nodeDown)
	}
	for _, ef := range ev.Edges {
		for _, id := range [2]int32{e.dirEdgeID(ef.U, ef.V), e.dirEdgeID(ef.V, ef.U)} {
			if id >= 0 {
				fs.edgeDown[id] = true
			}
		}
	}
	for _, v := range ev.Nodes {
		if v < 0 || v >= len(fs.nodeDown) {
			panic(fmt.Sprintf("routing: fault event fails vertex %d of %d", v, len(fs.nodeDown)))
		}
		fs.nodeDown[v] = true
	}
	fs.fields = make([]atomic.Pointer[[]int], len(fs.fields))
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

// SetFaults arms the sim with a materialized fault schedule and an
// all-live mask: events fire at the start of the tick they are keyed to
// (events keyed before the current tick fire immediately on the next
// Step). The engine is untouched; Reset disarms the sim again.
func (s *Sim) SetFaults(sched *topology.FaultSchedule) {
	if sched == nil {
		panic("routing: SetFaults with nil schedule")
	}
	e := s.eng
	s.faults = &faultState{
		sched:    sched,
		edgeDown: make([]bool, e.numEdges),
		nodeDown: make([]bool, e.numVerts),
		fields:   make([]atomic.Pointer[[]int], e.numVerts),
	}
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
		fs.apply(s.eng, fs.sched.Events[fs.next])
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
	fs := s.faults
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
					if fs.nodeDown[u] || fs.nodeDown[p.finalDst] {
						s.dropped++
						s.droppedTick++
						continue
					}
					if p.phase1 && fs.nodeDown[p.dst] {
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
