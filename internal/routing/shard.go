package routing

import (
	"math/bits"
	"runtime"
	"sync/atomic"
)

// Intra-sim sharding. The vertex set is partitioned across shards; each
// tick every shard runs two phases back to back:
//
//	move:   serve the shard's own vertices' queues (FIFO order, edge
//	        capacity, fault retry logic), deliver packets that reach
//	        their final destination, and post the rest to the mailbox
//	        outbox[destination shard]; then publish the shard's epoch.
//	arrive: spin until every in-neighbour shard's epoch reaches this tick,
//	        then merge the inbound mailboxes in sender order and push the
//	        arrivals into the shard's own queues.
//
// There is no global move/arrive barrier: the epoch counters order each
// pair of neighbouring shards individually, so a shard whose in-neighbours
// finished early proceeds while distant shards are still moving. The
// driver joins all shards only at the end of the tick (to fold counters
// and let the next tick's injections land safely).
//
// Safety rests on ownership plus the epoch protocol: vq[u], u's bit in
// the shard's own active bitset, and the edge slots of edges *out of* u
// (edgeUsed, stats.edgeTotals) are touched only by u's owning shard; a
// mailbox shards[j].outbox[i] is written only during j's move and read
// only during i's arrive, which the atomic epoch store/load pair orders. A
// shard only ever touches the mailboxes of shards it shares a graph edge
// with (srcShards/outNbrs, computed once), so no slice header is ever
// accessed by a non-synchronized pair of shards.
//
// Determinism rests on two rules. First, randomness is positional: every
// hop decision draws from a (tick, vertex)-keyed stream (vrand.go), so no
// shard's choices depend on any other's schedule. Second, arrival order is
// canonical: the move phase serves vertices in ascending id order, so each
// mailbox is sender-sorted, and the arrive phase k-way-merges its inboxes
// by sender id — reproducing exactly the order a serial sweep in ascending
// vertex order would have produced, at every shard count and partition.
// Delivery counters and latency histograms are order-independent
// (sums and bucket counts), which is why final-destination deliveries can
// be counted at the sender shard during move without crossing a mailbox.

// arrival is one packet crossing a shard boundary, tagged with the vertex
// that forwarded it so the merge can restore canonical order.
type arrival struct {
	sender int32
	p      simPacket
}

// shardEpoch is one shard's published tick counter, padded to a cache line
// so neighbouring shards' spins do not false-share.
type shardEpoch struct {
	v atomic.Int64
	_ [56]byte
}

// simShard owns a contiguous range of vertices, [lo, lo+owned). All
// mutable state below is private to the shard's phase functions except the
// outboxes (published via the epoch protocol) and the cumulative histograms
// (merged by the driver between ticks).
type simShard struct {
	id    int
	lo    int // first owned vertex
	owned int // number of vertices assigned to this shard

	// active has bit u-lo set exactly when owned vertex u has queued
	// packets. It is per shard, never global: a shared boundary word would
	// let two shards race on it in arrive.
	active []uint64

	touched []int32 // edge-usage slots dirtied this tick

	outbox [][]arrival // per destination shard, refilled every move phase
	heads  []int       // arrive-phase merge cursors, one per source shard

	// Shard topology, computed once from the machine graph: which shards
	// this one can receive from (ascending, includes self), which it can
	// send to (ascending, includes self), and which epochs arrive must
	// wait on (srcShards minus self).
	srcShards []int32
	outNbrs   []int32
	waitFor   []int32

	// Cumulative per-shard statistics, merged on demand.
	latHist  Histogram // delivery latencies of packets delivered here
	queueOcc Histogram // queue lengths sampled each tick (stats runs only)
	maxQueue int

	// Per-tick deltas, folded into the Sim's global counters by Step after
	// the tick and then reset.
	tickDelivered int
	tickDropped   int
	tickRetried   int
	tickHops      int64
	tickLatency   int64
}

func newSimShard(id, lo, owned int) *simShard {
	return &simShard{
		id:     id,
		lo:     lo,
		owned:  owned,
		active: make([]uint64, (owned+63)/64),
	}
}

// move serves every active owned vertex in ascending id order: clears the
// previous tick's edge usage, serves each queue in FIFO order under
// per-wire capacity, counts packets that reached their final destination as
// delivered, and posts the other moved packets to the destination shard's
// mailbox. Each queue is filtered in place, which is safe because nothing
// pushes to an owned vertex during move: arrivals wait in the mailboxes
// for arrive, and injections happen between Steps.
func (sh *simShard) move(s *Sim) {
	for _, id := range sh.touched {
		s.edgeUsed[id] = 0
	}
	sh.touched = sh.touched[:0]
	for _, j := range sh.outNbrs {
		sh.outbox[j] = sh.outbox[j][:0]
	}
	eng := s.eng
	fs := s.faults
	stats := s.stats
	caps := eng.caps
	now := s.now
	// Canonical service order: ascending vertex id, read off the bitset by
	// trailing-zero count. Fairness across ticks comes from the positional
	// randomness of the hop choices, not from shuffling the service order.
	for w, word := range sh.active {
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			u := sh.lo + w<<6 + b
			q := s.vq[u]
			if len(q) > sh.maxQueue {
				sh.maxQueue = len(q)
			}
			vr := s.vertexRand(u)
			var capLeft int64 = -1
			if caps != nil {
				capLeft = caps[u]
			}
			kept := q[:0]
			for _, p := range q {
				if capLeft != 0 {
					keep := false
					if fs != nil {
						if int(p.sleepUntil) > now {
							keep = true // backing off
						} else if now-int(p.born) > faultTTL {
							sh.tickDropped++
							continue
						}
					}
					if !keep {
						h, edge := eng.pickHop(int(p.at), int(p.dst), s.edgeUsed, &vr, fs)
						if h >= 0 {
							if s.edgeUsed[edge] == 0 {
								sh.touched = append(sh.touched, edge)
							}
							s.edgeUsed[edge]++
							if stats != nil {
								stats.edgeTotals[edge]++
							}
							if capLeft > 0 {
								capLeft--
							}
							p.at = int32(h)
							sh.tickHops++
							if p.dst == p.at && !p.phase1 {
								// Delivered: counted here at the sender shard —
								// the counters and histogram buckets it feeds
								// are order-independent, so this matches the
								// serial accounting exactly.
								sh.tickDelivered++
								lat := now - int(p.born)
								sh.tickLatency += int64(lat)
								sh.latHist.Record(lat)
								continue
							}
							dst := s.shardOf[h]
							sh.outbox[dst] = append(sh.outbox[dst], arrival{sender: int32(u), p: p})
							continue
						}
						if fs != nil && eng.dist(int(p.dst), fs)[u] < 0 {
							// Stranded: no live path to the current target.
							if p.phase1 {
								// The Valiant intermediate became unreachable;
								// try the final destination directly.
								p.phase1 = false
								p.dst = p.finalDst
							} else {
								p.retries++
								sh.tickRetried++
								if p.retries > retryBudget {
									sh.tickDropped++
									continue
								}
								p.sleepUntil = int32(now + backoffTicks(p.retries))
							}
						}
						// Otherwise: all downhill wires saturated; wait in place.
					}
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

// arrive merges this shard's inbound mailboxes by ascending sender id and
// pushes each arrival, applying the Valiant phase switch on the way. Each
// mailbox is already sender-sorted (move serves vertices in ascending
// order), so a k-way merge over the in-neighbour shards restores the
// canonical global order.
func (sh *simShard) arrive(s *Sim) {
	heads := sh.heads
	for i := range heads {
		heads[i] = 0
	}
	for {
		src := -1
		var bestSender int32
		for i, sj := range sh.srcShards {
			ob := s.shards[sj].outbox[sh.id]
			if heads[i] < len(ob) && (src < 0 || ob[heads[i]].sender < bestSender) {
				src = i
				bestSender = ob[heads[i]].sender
			}
		}
		if src < 0 {
			break
		}
		// A sender's packets sit consecutively in exactly one mailbox;
		// consume the whole run before rescanning.
		ob := s.shards[sh.srcShards[src]].outbox[sh.id]
		h := heads[src]
		for ; h < len(ob) && ob[h].sender == bestSender; h++ {
			p := ob[h].p
			if p.at == p.dst {
				// Only a packet at its Valiant intermediate arrives at its
				// target: move counts every final-destination delivery at
				// the sender shard. Phase 2 starts next tick.
				p.phase1 = false
				p.dst = p.finalDst
			}
			s.push(p)
		}
		heads[src] = h
	}
	if s.stats != nil {
		sh.sampleQueues(s)
	}
}

// sampleQueues records one queue-occupancy sample per owned vertex: the
// queue length for active vertices, zero for the rest.
func (sh *simShard) sampleQueues(s *Sim) {
	idle := sh.owned
	for w, word := range sh.active {
		for ; word != 0; word &= word - 1 {
			u := sh.lo + w<<6 + bits.TrailingZeros64(word)
			sh.queueOcc.Record(len(s.vq[u]))
			idle--
		}
	}
	for ; idle > 0; idle-- {
		sh.queueOcc.Record(0)
	}
}

// Worker plumbing: shards beyond the first get a long-lived goroutine fed
// tick commands over a channel, so the steady-state tick loop spawns
// nothing. Shard 0 always runs inline on the driver. One dispatch per tick
// (not per phase): the move->arrive ordering between shards is enforced by
// the epoch counters, not by channel round-trips.

type shardWorker struct {
	cmd  chan struct{}
	done chan struct{}
}

func (s *Sim) startWorkers() {
	s.workers = make([]*shardWorker, len(s.shards)-1)
	for i := range s.workers {
		w := &shardWorker{cmd: make(chan struct{}), done: make(chan struct{})}
		s.workers[i] = w
		sh := s.shards[i+1]
		go func() {
			for range w.cmd {
				s.tickShard(sh)
				w.done <- struct{}{}
			}
		}()
	}
}

// tickShard runs one shard's full tick: move, publish the shard's epoch
// (the release point for its outboxes), wait for the in-neighbour shards'
// epochs (the acquire point for theirs), arrive. The atomic store/load
// pairs carry the happens-before edges a global barrier used to provide —
// but only between shards that actually exchange packets.
func (s *Sim) tickShard(sh *simShard) {
	sh.move(s)
	tick := int64(s.now)
	s.epochs[sh.id].v.Store(tick)
	for _, j := range sh.waitFor {
		ep := &s.epochs[j]
		for ep.v.Load() < tick {
			runtime.Gosched()
		}
	}
	sh.arrive(s)
}
