package routing

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/topology"
	"repro/internal/traffic"
)

// queuedPackets counts every packet sitting in a vertex queue — the
// white-box side of the conservation invariant.
func queuedPackets(s *Sim) int {
	total := 0
	for _, q := range s.vq {
		total += len(q)
	}
	return total
}

// table4Machines mirrors the bandwidth package's Table 4 sweep: small
// instances of every machine the paper tabulates.
func table4Machines(rng *rand.Rand) []*topology.Machine {
	return []*topology.Machine{
		topology.LinearArray(16),
		topology.GlobalBus(16),
		topology.Tree(4),
		topology.WeakPPN(16),
		topology.XTree(4),
		topology.Mesh(2, 4),
		topology.Mesh(3, 3),
		topology.Torus(2, 4),
		topology.XGrid(2, 4),
		topology.MeshOfTrees(2, 4),
		topology.Multigrid(2, 4),
		topology.Pyramid(2, 4),
		topology.Butterfly(3),
		topology.WrappedButterfly(3),
		topology.CubeConnectedCycles(3),
		topology.ShuffleExchange(4),
		topology.DeBruijn(4),
		topology.WeakHypercube(4),
		topology.Multibutterfly(3, rng),
		topology.Expander(16, rng),
	}
}

// ISSUE acceptance: injected = delivered + in-flight + dropped at every
// tick, on every Table 4 machine, under a nonzero fault schedule — and the
// bookkept InFlight always equals the actual queued-packet count.
func TestFaultConservationOnTable4Machines(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	plan := topology.MustParseFaultSpec("edges:0.15@t10,nodes:2@t25,heal@t60")
	for _, m := range table4Machines(rng) {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			mrng := rand.New(rand.NewSource(42))
			sched := plan.Materialize(m, mrng)
			if sched.TotalEdgeFaults() == 0 && sched.TotalNodeFaults() == 0 {
				t.Fatalf("%s: fault schedule is empty, test would be vacuous", m.Name)
			}
			e := NewEngine(m, Greedy)
			s := e.NewSim(mrng)
			s.SetFaults(sched)
			dist := traffic.NewSymmetric(m.N())
			for tick := 0; tick < 100; tick++ {
				s.InjectSampled(dist, 2)
				s.Step()
				queued := queuedPackets(s)
				if s.Injected() != s.Delivered()+s.Dropped()+queued {
					t.Fatalf("tick %d: injected %d != delivered %d + dropped %d + queued %d",
						s.Now(), s.Injected(), s.Delivered(), s.Dropped(), queued)
				}
				if s.InFlight() != queued {
					t.Fatalf("tick %d: InFlight %d != queued %d", s.Now(), s.InFlight(), queued)
				}
			}
		})
	}
}

// strandedRun routes one packet from src to dst on a linear array of n
// vertices whose wire (cut, cut+1) fails at tick at, and returns the sim
// once the packet has left it.
func strandedRun(t *testing.T, n, src, dst, cut, at int) *Sim {
	t.Helper()
	e := NewEngine(topology.LinearArray(n), Greedy)
	s := e.NewSim(rand.New(rand.NewSource(43)))
	s.SetFaults(&topology.FaultSchedule{Events: []topology.FaultEvent{
		{Tick: at, Edges: []topology.EdgeFault{{U: cut, V: cut + 1, Mult: 1}}},
	}})
	s.Inject([]traffic.Message{{Src: src, Dst: dst}})
	for i := 0; i < 2*faultTTL && s.InFlight() > 0; i++ {
		s.Step()
	}
	if s.InFlight() != 0 || s.Delivered() != 0 || s.Dropped() != 1 {
		t.Fatalf("in flight %d delivered %d dropped %d, want 0/0/1", s.InFlight(), s.Delivered(), s.Dropped())
	}
	return s
}

// A packet stranded at its source by a partition backs off, retries, and
// is dropped once its retry budget is spent — it never lingers forever and
// never vanishes from the conservation ledger. The retryBudget backoffs
// double from backoffBase, so the budget runs out at tick 2^9-1 = 511,
// just inside faultTTL.
func TestStrandedPacketRetriesThenDrops(t *testing.T) {
	s := strandedRun(t, 8, 0, 7, 0, 1)
	if s.Retried() != 9 || s.Now() != 511 {
		t.Fatalf("retried %d, dropped at tick %d; want 9 retries (the last exceeds the budget of 8), tick 511",
			s.Retried(), s.Now())
	}
}

// A transient partition is survivable: a heal before the retry budget runs
// out lets the stranded packet reach its destination.
func TestStrandedPacketSurvivesHeal(t *testing.T) {
	m := topology.LinearArray(8)
	e := NewEngine(m, Greedy)
	rng := rand.New(rand.NewSource(44))
	s := e.NewSim(rng)
	sched := &topology.FaultSchedule{Events: []topology.FaultEvent{
		{Tick: 1, Edges: []topology.EdgeFault{{U: 3, V: 4, Mult: 1}}},
		{Tick: 20, Heal: true},
	}}
	s.SetFaults(sched)
	s.Inject([]traffic.Message{{Src: 0, Dst: 7}})
	for i := 0; i < 200 && s.InFlight() > 0; i++ {
		s.Step()
	}
	if s.Delivered() != 1 || s.Dropped() != 0 {
		t.Fatalf("delivered %d dropped %d, want 1/0 after heal", s.Delivered(), s.Dropped())
	}
	if s.Retried() == 0 {
		t.Fatal("packet never retried, so the cut was not exercised")
	}
}

// A dead processor loses its queue, and traffic to or from a dead endpoint
// is dropped at injection — both paths keep the ledger exact.
func TestDeadProcessorDropsQueueAndInjection(t *testing.T) {
	m := topology.LinearArray(8)
	e := NewEngine(m, Greedy)
	rng := rand.New(rand.NewSource(45))
	s := e.NewSim(rng)
	sched := &topology.FaultSchedule{Events: []topology.FaultEvent{
		{Tick: 2, Nodes: []int{4}},
	}}
	s.SetFaults(sched)
	// The packet bound for vertex 4 is still two hops away when 4 dies, so
	// the event must reap it; the packet leaving 4 escapes beforehand.
	s.Inject([]traffic.Message{{Src: 4, Dst: 7}, {Src: 0, Dst: 4}})
	for i := 0; i < 10; i++ {
		s.Step()
	}
	// After the event: the packet resident at/near 4 may have escaped, but
	// the one destined for 4 must be dropped.
	if s.Dropped() == 0 {
		t.Fatalf("no drops after processor 4 died (delivered %d, in flight %d)",
			s.Delivered(), s.InFlight())
	}
	// New traffic touching the dead endpoint is dropped at injection.
	before := s.Dropped()
	s.Inject([]traffic.Message{{Src: 4, Dst: 0}, {Src: 7, Dst: 4}})
	if s.Dropped() != before+2 {
		t.Fatalf("dead-endpoint injections dropped %d, want %d", s.Dropped(), before+2)
	}
	if s.Injected() != 4 {
		t.Fatalf("injected %d, want 4 (drops still count as injected)", s.Injected())
	}
	if got := queuedPackets(s); s.InFlight() != got {
		t.Fatalf("InFlight %d != queued %d", s.InFlight(), got)
	}
}

// TTL is a hard bound: a packet stranded after travelling 30 hops wakes
// from its 8th backoff at tick 30+2^9-2 = 540, older than faultTTL, and is
// dropped before its budget runs out.
func TestPacketTTL(t *testing.T) {
	s := strandedRun(t, 64, 0, 63, 40, 30)
	if s.Retried() != 8 || s.Now() != 540 {
		t.Fatalf("retried %d, dropped at tick %d; want 8 retries, tick 540 (TTL)", s.Retried(), s.Now())
	}
}

// Valiant packets survive faults: a dead intermediate retargets the packet
// at its true destination instead of stranding it.
func TestValiantRetargetsDeadIntermediate(t *testing.T) {
	m := topology.Mesh(2, 4)
	e := NewEngine(m, Valiant)
	rng := rand.New(rand.NewSource(47))
	s := e.NewSim(rng)
	// Kill a third of the mesh early; plenty of Valiant intermediates die.
	sched := topology.MustParseFaultSpec("nodes:5@t3").Materialize(m, rand.New(rand.NewSource(48)))
	s.SetFaults(sched)
	dist := traffic.NewSymmetric(m.N())
	for tick := 0; tick < 120; tick++ {
		s.InjectSampled(dist, 2)
		s.Step()
		queued := queuedPackets(s)
		if s.Injected() != s.Delivered()+s.Dropped()+queued {
			t.Fatalf("tick %d: conservation broken", s.Now())
		}
	}
	if s.Delivered() == 0 {
		t.Fatal("nothing delivered on a mostly-live mesh")
	}
}

// A sim's fault mask and live distance fields agree with the surviving
// topology: masked wires are never traversed, and the engine's own
// fault-free field is untouched by the mask.
func TestPickHopAvoidsDeadWires(t *testing.T) {
	m := topology.Ring(6)
	e := NewEngine(m, Greedy)
	s := e.NewSim(rand.New(rand.NewSource(1)))
	defer s.Close()
	s.SetFaults(&topology.FaultSchedule{Events: []topology.FaultEvent{
		{Tick: 1, Edges: []topology.EdgeFault{{U: 0, V: 1, Mult: 1}}},
		{Tick: 2, Heal: true},
	}})
	s.Step() // tick 1: the wire 0-1 fails
	fs := s.faults
	// 0 -> 2 must now go the long way round: distance 4, not 2, first hop 5.
	if d := e.dist(2, fs); d[0] != 4 {
		t.Fatalf("live distance 0->2 = %d, want 4 around the cut", d[0])
	}
	edgeUsed := make([]int32, e.numEdges)
	vr := vrand{state: 1}
	if h, id := e.pickHop(0, 2, edgeUsed, &vr, fs); h != 5 || id != e.dirEdgeID(0, 5) {
		t.Fatalf("hop 0->2 under the cut = %d on edge %d, want 5 on edge %d", h, id, e.dirEdgeID(0, 5))
	}
	edges, nodes := 0, 0
	for _, down := range fs.edgeDown {
		if down {
			edges++
		}
	}
	for _, down := range fs.nodeDown {
		if down {
			nodes++
		}
	}
	if edges != 2 || nodes != 0 {
		t.Fatalf("down counts %d/%d, want 2 directed edges, 0 nodes", edges, nodes)
	}
	if d := e.dist(2, nil); d[0] != 2 {
		t.Fatalf("fault-free distance 0->2 = %d under another sim's mask, want 2", d[0])
	}
	s.Step() // tick 2: heal restores the short path
	if d := e.dist(2, fs); d[0] != 2 {
		t.Fatalf("post-heal distance 0->2 = %d, want 2", d[0])
	}
}

// The snapshot schema under faults: version 2, fault counters populated,
// dropped per-tick series emitted in JSON and as the fourth CSV column.
func TestOpenLoopFaultsSnapshot(t *testing.T) {
	m := topology.Mesh(2, 5)
	e := NewEngine(m, Greedy)
	rng := rand.New(rand.NewSource(49))
	sched := topology.MustParseFaultSpec("edges:0.2@t30,nodes:2@t60").Materialize(m, rng)
	res, sn := e.OpenLoop(traffic.NewSymmetric(m.N()), rng, OpenLoopOptions{Rate: 3, Ticks: 150, Snapshot: true, TopK: 5, Faults: sched})
	if sn.SchemaVersion != SnapshotSchemaVersion {
		t.Fatalf("schema version %d, want %d", sn.SchemaVersion, SnapshotSchemaVersion)
	}
	if res.Dropped == 0 || sn.Dropped != res.Dropped {
		t.Fatalf("dropped: result %d snapshot %d, want equal and nonzero", res.Dropped, sn.Dropped)
	}
	if sn.Retried != res.Retried {
		t.Fatalf("retried: result %d snapshot %d", res.Retried, sn.Retried)
	}
	if len(sn.DroppedSeries) != 150 {
		t.Fatalf("dropped series has %d ticks, want 150", len(sn.DroppedSeries))
	}
	sum := 0
	for _, d := range sn.DroppedSeries {
		sum += d
	}
	if sum != sn.Dropped {
		t.Fatalf("dropped series sums to %d, counter says %d", sum, sn.Dropped)
	}
	if sn.Injected != sn.Delivered+sn.Dropped+sn.Backlog {
		t.Fatalf("snapshot conservation: %d != %d+%d+%d", sn.Injected, sn.Delivered, sn.Dropped, sn.Backlog)
	}
	var buf bytes.Buffer
	if err := sn.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "tick,injected,delivered,dropped" {
		t.Fatalf("csv header %q", lines[0])
	}
	if len(lines) != 151 {
		t.Fatalf("csv has %d lines, want 151", len(lines))
	}
}

// SetFaults rejects a nil schedule.
func TestSetFaultsNilPanics(t *testing.T) {
	m := topology.Ring(4)
	e := NewEngine(m, Greedy)
	s := e.NewSim(rand.New(rand.NewSource(50)))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.SetFaults(nil)
}
