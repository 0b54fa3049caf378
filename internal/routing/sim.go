package routing

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/measure"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Sim is an incremental simulation: messages can be injected while the
// machine runs, which is what the open-loop (steady-state) bandwidth
// measurements need. Route is a batch wrapper around it.
//
// The inner loop allocates only when a vertex's queue first outgrows its
// earlier capacity: per-tick wire usage lives in a flat array cleared
// through a touched-list, each vertex's queue is a slice filtered in place
// that keeps its backing array, each shard marks its occupied vertices in
// a bitset, mailboxes reuse their backing arrays, and delivery latencies
// stream into bucketed histograms (see TestStepSteadyStateAllocs and
// TestShardedStepSteadyStateAllocs for the enforced budgets).
//
// A Sim always runs as one or more shards (shard.go): the vertex set is
// partitioned, each shard advances its own queues, and boundary packets
// cross shards through per-(source, destination)-shard mailboxes under an
// epoch-counter pipeline per tick. Every random decision is keyed by
// (tick, vertex), never drawn from a shared stream, so the results are
// bit-for-bit identical at every shard count; the serial simulator is
// simply the one-shard instance run inline.
type Sim struct {
	eng *Engine
	rng *rand.Rand // injection-side stream: sampling and Valiant intermediates

	// planState roots the per-(tick, vertex) decision streams; vertexRand
	// derives them exactly as measure.SeedPlan.Fork(tick, vertex) would.
	planState uint64

	shards  []*simShard
	workers []*shardWorker // len(shards)-1 long-lived goroutines; nil when serial
	shardOf []int32        // vertex id -> owning shard

	// epochs[i] is the last tick shard i finished its move phase for —
	// the publication point of its outboxes. A shard's arrive spins on the
	// epochs of its in-neighbour shards only, so unrelated shards pipeline
	// freely instead of meeting at a global barrier.
	epochs []shardEpoch

	vq       [][]simPacket // per-vertex FIFO; touched only by the owning shard
	edgeUsed []int32       // per directed edge id, usage this tick (owner-shard writes)

	now int // current tick

	// Global counters. Shard phases accumulate per-tick deltas which Step
	// folds in after the tick, so between Steps these are authoritative.
	injected     int
	delivered    int
	dropped      int // lost to faults: dead endpoints, spent retries, TTL
	retried      int // stranded-packet retry events
	totalHops    int64
	latencySum   int64
	maxQueue     int
	injectedTick int // injections since the last Step, for the stats series
	droppedTick  int // driver-context drops (dead-endpoint injection, reaping)

	latMerged   Histogram // lazily merged view of the shard latency histograms
	latMergedAt int       // delivered count the merge is valid for; -1 = dirty

	stats  *statsRec   // nil unless EnableStats was called
	faults *faultState // schedule and fault mask; nil unless SetFaults was called
	closed bool
}

// simPacket is one in-flight message, packed to 24 bytes so queues and
// mailboxes stay cache-friendly at million-packet populations.
type simPacket struct {
	at       int32 // current vertex
	dst      int32 // current target (intermediate during Valiant phase 1)
	finalDst int32
	born     int32
	// sleepUntil is the tick before which a backed-off packet is not
	// served (faults only).
	sleepUntil int32
	// retries counts reroute attempts while stranded (faults only).
	retries uint8
	phase1  bool // still heading for the Valiant intermediate
}

// NewSim returns a fresh serial simulation on the engine's machine.
func (e *Engine) NewSim(rng *rand.Rand) *Sim {
	return e.NewShardedSim(rng, 1)
}

// NewShardedSim returns a simulation whose vertex set is partitioned into
// the given number of contiguous-id shards, each advanced by its own
// goroutine per tick. shards is clamped to [1, vertices]. Results are
// bit-for-bit identical to the serial sim at every shard count; see
// DESIGN.md for the determinism contract. Call Close when done.
func (e *Engine) NewShardedSim(rng *rand.Rand, shards int) *Sim {
	n := e.numVerts
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	s := &Sim{
		eng:         e,
		rng:         rng,
		planState:   uint64(measure.NewSeedPlan(rng.Int63()).Seed()),
		vq:          make([][]simPacket, n),
		edgeUsed:    make([]int32, e.numEdges),
		shardOf:     make([]int32, n),
		epochs:      make([]shardEpoch, shards),
		latMergedAt: -1,
	}
	s.shards = make([]*simShard, shards)
	for i := range s.shards {
		lo, hi := i*n/shards, (i+1)*n/shards
		for v := lo; v < hi; v++ {
			s.shardOf[v] = int32(i)
		}
		s.shards[i] = newSimShard(i, lo, hi-lo)
	}
	s.wireShardTopology()
	if shards > 1 {
		s.startWorkers()
	}
	return s
}

// wireShardTopology computes, once, which shards can exchange packets: a
// packet only ever crosses from shard i to shard j along a graph edge, so
// each shard clears and merges only its neighbour shards' mailboxes and
// waits only on their epochs. Serial sims get the trivial self-loop.
func (s *Sim) wireShardTopology() {
	e := s.eng
	k := len(s.shards)
	for _, sh := range s.shards {
		sh.outbox = make([][]arrival, k)
	}
	if k == 1 {
		sh := s.shards[0]
		sh.srcShards = []int32{0}
		sh.outNbrs = []int32{0}
		sh.heads = make([]int, 1)
		return
	}
	adj := make([]bool, k*k)
	for i := 0; i < k; i++ {
		adj[i*k+i] = true
	}
	var buf [topology.MaxImplicitDegree]int32
	for u := 0; u < e.numVerts; u++ {
		su := int(s.shardOf[u])
		nbrs, _ := e.neighbors(u, buf[:0])
		for _, v := range nbrs {
			adj[su*k+int(s.shardOf[v])] = true
		}
	}
	for i, sh := range s.shards {
		for j := 0; j < k; j++ {
			if adj[j*k+i] {
				sh.srcShards = append(sh.srcShards, int32(j))
			}
			if adj[i*k+j] {
				sh.outNbrs = append(sh.outNbrs, int32(j))
			}
		}
		for _, j := range sh.srcShards {
			if int(j) != i {
				sh.waitFor = append(sh.waitFor, j)
			}
		}
		sh.heads = make([]int, len(sh.srcShards))
	}
}

// Reset returns the sim to the state a fresh NewShardedSim on the same
// engine and shard count would have, rooted at rng, while keeping every
// allocation: each vertex queue's backing array, the active bitsets,
// mailbox backing arrays, histogram buckets, and the worker goroutines all
// survive. A warm (reset) run is byte-identical to a cold one because the
// only run-visible state — queues, per-tick wire usage, counters,
// histograms, epochs, and the rng-derived plan seed — is restored exactly;
// the recycled storage is never observable. A fault schedule and its mask
// are dropped with the rest of the run, so a faulted sim resets like any
// other.
func (s *Sim) Reset(rng *rand.Rand) {
	if s.closed {
		panic("routing: Reset on a closed Sim")
	}
	for _, sh := range s.shards {
		// Edge usage dirtied by the final move of the previous run is
		// normally cleared at the start of the next move; clear it now so
		// the first tick starts from zero usage.
		for _, id := range sh.touched {
			s.edgeUsed[id] = 0
		}
		sh.touched = sh.touched[:0]
		// Every vertex with a non-empty queue has its bit set (push sets
		// it, move clears it), so truncating the active vertices' queues
		// empties the machine and keeps every backing array.
		for w, word := range sh.active {
			for ; word != 0; word &= word - 1 {
				u := sh.lo + w<<6 + bits.TrailingZeros64(word)
				s.vq[u] = s.vq[u][:0]
			}
			sh.active[w] = 0
		}
		for j := range sh.outbox {
			sh.outbox[j] = sh.outbox[j][:0]
		}
		sh.latHist.Reset()
		sh.queueOcc.Reset()
		sh.maxQueue = 0
		sh.tickDelivered, sh.tickDropped, sh.tickRetried = 0, 0, 0
		sh.tickHops, sh.tickLatency = 0, 0
	}
	// Workers are idle between Steps (Step joins them), so plain stores are
	// safe. Zeroing is mandatory: the epoch pipeline orders shards by
	// comparing against the restarted tick counter.
	for i := range s.epochs {
		s.epochs[i].v.Store(0)
	}
	s.now = 0
	s.injected, s.delivered, s.dropped, s.retried = 0, 0, 0, 0
	s.totalHops, s.latencySum = 0, 0
	s.maxQueue = 0
	s.injectedTick, s.droppedTick = 0, 0
	s.latMerged.Reset()
	s.latMergedAt = -1
	s.stats = nil
	s.faults = nil
	// Re-root the decision streams exactly as newSim does, consuming the
	// same single draw from rng.
	s.rng = rng
	s.planState = uint64(measure.NewSeedPlan(rng.Int63()).Seed())
}

// Close releases the sim's worker goroutines. It is idempotent; only
// Step panics afterwards, counters and Snapshot stay readable. Serial sims
// have no workers, but closing them is harmless.
func (s *Sim) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, w := range s.workers {
		close(w.cmd)
	}
}

// vertexRand derives vertex u's decision stream for the current tick:
// exactly the stream measure.SeedPlan.Fork(tick, vertex) addresses, inlined
// so the hot path stays free of variadic calls. Keying by (tick, vertex) —
// never by shard — is what makes results independent of the shard count.
func (s *Sim) vertexRand(u int) vrand {
	st := s.planState
	st = measure.Mix64(st + 0x9e3779b97f4a7c15 + measure.Mix64(uint64(s.now)))
	st = measure.Mix64(st + 0x9e3779b97f4a7c15 + measure.Mix64(uint64(u)))
	return vrand{state: st}
}

// Now returns the current tick.
func (s *Sim) Now() int { return s.now }

// InFlight returns the number of messages still queued somewhere in the
// machine: injected minus delivered minus dropped. The fault conservation
// invariant is that this always equals the total queued-packet count.
func (s *Sim) InFlight() int { return s.injected - s.delivered - s.dropped }

// Delivered returns the number of delivered messages.
func (s *Sim) Delivered() int { return s.delivered }

// Injected returns the number of injected messages.
func (s *Sim) Injected() int { return s.injected }

// MeanLatency returns the average injection-to-delivery time over all
// delivered messages (0 if none).
func (s *Sim) MeanLatency() float64 {
	if s.delivered == 0 {
		return 0
	}
	return float64(s.latencySum) / float64(s.delivered)
}

// MaxQueue returns the largest per-vertex queue seen so far.
func (s *Sim) MaxQueue() int { return s.maxQueue }

// LatencyPercentile returns the nearest-rank p-th percentile (0 < p <= 1)
// of delivery latencies observed so far, or 0 if nothing was delivered.
// Latencies stream into a bucketed histogram, so the answer is exact below
// 256 ticks and within one bucket width (<1% relative) above.
func (s *Sim) LatencyPercentile(p float64) int {
	return s.latencyHist().Quantile(p)
}

// latencyHist returns the delivery-latency histogram merged across shards,
// rebuilt only when deliveries happened since the last merge.
func (s *Sim) latencyHist() *Histogram {
	if len(s.shards) == 1 {
		return &s.shards[0].latHist
	}
	if s.latMergedAt != s.delivered {
		s.latMerged.Reset()
		for _, sh := range s.shards {
			s.latMerged.Merge(&sh.latHist)
		}
		s.latMergedAt = s.delivered
	}
	return &s.latMerged
}

// push appends p to the queue of the vertex it sits at and marks that
// vertex active in its owning shard.
func (s *Sim) push(p simPacket) {
	u := int(p.at)
	sh := s.shards[s.shardOf[u]]
	i := u - sh.lo
	sh.active[i>>6] |= 1 << (i & 63)
	s.vq[u] = append(s.vq[u], p)
}

func (s *Sim) injectOne(m traffic.Message) {
	if m.Src == m.Dst {
		panic(fmt.Sprintf("routing: self-message %+v", m))
	}
	if !s.eng.M.IsProcessor(m.Src) || !s.eng.M.IsProcessor(m.Dst) {
		panic(fmt.Sprintf("routing: message %+v endpoints must be processors", m))
	}
	if s.faults.down(m.Src) || s.faults.down(m.Dst) {
		// Traffic at a dead endpoint is lost, not queued: it still counts
		// as injected so the conservation invariant stays exact.
		s.injected++
		s.injectedTick++
		s.dropped++
		s.droppedTick++
		return
	}
	p := simPacket{at: int32(m.Src), dst: int32(m.Dst), finalDst: int32(m.Dst), born: int32(s.now)}
	if s.eng.Strategy == Valiant {
		mid := s.rng.Intn(s.eng.M.N())
		if mid != m.Src && mid != m.Dst && !s.faults.down(mid) {
			p.dst = int32(mid)
			p.phase1 = true
		}
	}
	s.injected++
	s.injectedTick++
	s.push(p)
}

// Inject adds messages at the current tick. Sources and destinations must
// be processors; self-messages are rejected.
func (s *Sim) Inject(batch []traffic.Message) {
	for _, m := range batch {
		s.injectOne(m)
	}
}

// InjectSampled draws k messages from dist using the sim's rng and injects
// them at the current tick — equivalent to Inject(traffic.Batch(dist, k,
// rng)) without materialising the batch slice. The open-loop driver uses it
// to keep the per-tick loop allocation-free.
func (s *Sim) InjectSampled(dist traffic.Distribution, k int) {
	for i := 0; i < k; i++ {
		s.injectOne(dist.Sample(s.rng))
	}
}

// Step advances the machine one tick and returns the number of messages
// delivered during it. Each shard runs move (serve its queues, post moved
// packets to per-shard mailboxes, publish its epoch) then arrive (spin
// until its in-neighbour shards' epochs reach this tick, merge the inbound
// mailboxes in sender order, apply arrivals); the driver then folds the
// shards' per-tick deltas into the global counters.
func (s *Sim) Step() int {
	if s.closed {
		panic("routing: Step on a closed Sim")
	}
	s.now++
	injectedThisTick := s.injectedTick
	s.injectedTick = 0
	if s.faults != nil {
		s.applyFaultEvents()
	}
	droppedPreStep := s.droppedTick // injection-time and reaping drops
	s.droppedTick = 0

	if s.workers == nil {
		sh := s.shards[0]
		sh.move(s)
		sh.arrive(s)
	} else {
		for _, w := range s.workers {
			w.cmd <- struct{}{}
		}
		s.tickShard(s.shards[0])
		for _, w := range s.workers {
			<-w.done
		}
	}

	deliveredNow := 0
	droppedNow := 0
	for _, sh := range s.shards {
		deliveredNow += sh.tickDelivered
		droppedNow += sh.tickDropped
		s.retried += sh.tickRetried
		s.totalHops += sh.tickHops
		s.latencySum += sh.tickLatency
		if sh.maxQueue > s.maxQueue {
			s.maxQueue = sh.maxQueue
		}
		sh.tickDelivered, sh.tickDropped, sh.tickRetried = 0, 0, 0
		sh.tickHops, sh.tickLatency = 0, 0
	}
	s.delivered += deliveredNow
	s.dropped += droppedNow

	if r := s.stats; r != nil {
		r.injectedSeries = append(r.injectedSeries, injectedThisTick)
		r.deliveredSeries = append(r.deliveredSeries, deliveredNow)
		r.droppedSeries = append(r.droppedSeries, droppedPreStep+droppedNow)
	}
	return deliveredNow
}

// OpenLoopResult reports a steady-state run at a fixed injection rate.
type OpenLoopResult struct {
	Rate        float64 // requested injection rate (messages/tick)
	Ticks       int
	Injected    int
	Delivered   int
	Dropped     int     // packets lost to faults (0 on fault-free runs)
	Retried     int     // stranded-packet retry events (0 on fault-free runs)
	Throughput  float64 // delivered per tick over the measurement window
	MeanLatency float64
	P95Latency  int // 95th percentile delivery latency over the whole run
	Backlog     int // messages still in flight at the end
	// Stable is true when the delivery rate kept up with injection: the
	// final backlog is at most a small multiple of the per-tick injection.
	Stable bool
}

// OpenLoopOptions configures one open-loop run.
type OpenLoopOptions struct {
	Rate   float64 // injection rate in messages per tick; fractional rates accumulate
	Ticks  int     // run length, >= 8
	Shards int     // simulator shard count; 0 or 1 = serial
	// Snapshot asks for the run's full instrumentation (per-tick series,
	// queue-occupancy histogram, top-k edge utilization, latency
	// quantiles); TopK bounds the edge list, <= 0 means 10.
	Snapshot bool
	TopK     int
	// Faults, when non-nil, is armed on the sim before the first tick:
	// events fire as the run crosses their ticks, and the result carries
	// the dropped/retried counters.
	Faults *topology.FaultSchedule
}

// OpenLoop injects messages from dist at o.Rate for o.Ticks ticks and
// reports the achieved steady-state throughput. The first quarter of the
// run is treated as warm-up and excluded from the throughput/latency
// window. The snapshot is nil unless o.Snapshot is set.
//
// Every run, faulted or not, recycles a pooled sim and never mutates the
// engine, so concurrent callers may share one. Results are byte-identical
// at every shard count and pooled or not.
func (e *Engine) OpenLoop(dist traffic.Distribution, rng *rand.Rand, o OpenLoopOptions) (OpenLoopResult, *Snapshot) {
	if o.Rate <= 0 || o.Ticks < 8 {
		panic(fmt.Sprintf("routing: bad open-loop parameters rate=%v ticks=%d", o.Rate, o.Ticks))
	}
	s := e.acquireSim(rng, o.Shards)
	defer e.releaseSim(s)
	if o.Faults != nil {
		s.SetFaults(o.Faults)
	}
	if o.Snapshot {
		s.EnableStats()
	}
	res := s.openLoop(dist, o.Rate, o.Ticks)
	if !o.Snapshot {
		return res, nil
	}
	snap := s.Snapshot(o.TopK)
	return res, &snap
}

// openLoop drives the run OpenLoop configured.
func (s *Sim) openLoop(dist traffic.Distribution, rate float64, ticks int) OpenLoopResult {
	warmup := ticks / 4
	var acc float64
	deliveredWindow := 0
	var latWindowSum int64
	latWindowCount := 0
	for t := 0; t < ticks; t++ {
		acc += rate
		k := int(acc)
		acc -= float64(k)
		if k > 0 {
			s.InjectSampled(dist, k)
		}
		before := s.latencySum
		beforeCount := s.delivered
		d := s.Step()
		if t >= warmup {
			deliveredWindow += d
			latWindowSum += s.latencySum - before
			latWindowCount += s.delivered - beforeCount
		}
	}
	res := OpenLoopResult{
		Rate:      rate,
		Ticks:     ticks,
		Injected:  s.Injected(),
		Delivered: s.Delivered(),
		Dropped:   s.Dropped(),
		Retried:   s.Retried(),
		Backlog:   s.InFlight(),
	}
	window := ticks - warmup
	if window > 0 {
		res.Throughput = float64(deliveredWindow) / float64(window)
	}
	if latWindowCount > 0 {
		res.MeanLatency = float64(latWindowSum) / float64(latWindowCount)
	}
	res.P95Latency = s.LatencyPercentile(0.95)
	// Stability: backlog bounded by a few ticks' worth of injections.
	res.Stable = float64(res.Backlog) <= 8*rate+16
	return res
}

// SaturationRate binary-searches the largest stable injection rate in
// (0, upper] using runs of the given length, returning the achieved
// throughput at that rate — the steady-state (open-loop) estimate of β.
// Typical use: upper = 2*E(G), ticks = 400, 12 iterations. The probes run
// sharded the given number of ways and all recycle one pooled sim.
func (e *Engine) SaturationRate(dist traffic.Distribution, upper float64, ticks, iters int, rng *rand.Rand, shards int) float64 {
	if upper <= 0 {
		panic("routing: non-positive upper bound")
	}
	lo, hi := 0.0, upper
	best := 0.0
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		if mid <= 0 {
			break
		}
		res, _ := e.OpenLoop(dist, rng, OpenLoopOptions{Rate: mid, Ticks: ticks, Shards: shards})
		if res.Stable {
			lo = mid
			if res.Throughput > best {
				best = res.Throughput
			}
		} else {
			hi = mid
		}
	}
	return best
}
