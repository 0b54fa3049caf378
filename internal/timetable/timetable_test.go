package timetable

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/embed"
	"repro/internal/multigraph"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func pathGraph(n int) *multigraph.Multigraph {
	g := multigraph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddSimpleEdge(i, i+1)
	}
	return g
}

func TestGreedySinglePacket(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	host := pathGraph(5)
	r := Greedy(host, []Packet{{Path: []int{0, 1, 2, 3, 4}}}, rng)
	if r.Makespan != 4 {
		t.Fatalf("makespan = %d, want 4", r.Makespan)
	}
	if r.Congestion != 1 || r.Dilation != 4 || r.Stalls != 0 {
		t.Fatalf("stats %+v", r)
	}
}

func TestGreedySerializesSharedWire(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	host := pathGraph(2)
	packets := []Packet{
		{Path: []int{0, 1}}, {Path: []int{0, 1}}, {Path: []int{0, 1}},
	}
	r := Greedy(host, packets, rng)
	if r.Makespan != 3 {
		t.Fatalf("makespan = %d, want 3 (one wire, three packets)", r.Makespan)
	}
	if r.Congestion != 3 {
		t.Fatalf("congestion = %d", r.Congestion)
	}
}

func TestGreedyRespectsMultiplicity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	host := multigraph.New(2)
	host.AddEdge(0, 1, 3)
	packets := []Packet{
		{Path: []int{0, 1}}, {Path: []int{0, 1}}, {Path: []int{0, 1}},
	}
	r := Greedy(host, packets, rng)
	if r.Makespan != 1 {
		t.Fatalf("makespan = %d, want 1 (triple wire)", r.Makespan)
	}
}

func TestEmptyPackets(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	host := pathGraph(3)
	if r := Greedy(host, nil, rng); r.Makespan != 0 {
		t.Fatalf("empty makespan = %d", r.Makespan)
	}
	if r := RandomDelay(host, nil, 1, rng); r.Makespan != 0 {
		t.Fatalf("empty makespan = %d", r.Makespan)
	}
}

func TestInvalidPathPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	host := pathGraph(4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-wire step")
		}
	}()
	Greedy(host, []Packet{{Path: []int{0, 2}}}, rng)
}

func TestFromEmbedding(t *testing.T) {
	host := pathGraph(4)
	guest := multigraph.New(4)
	guest.AddEdge(0, 3, 2) // multiplicity 2 -> 2 packets
	guest.AddEdge(1, 2, 1)
	e := embed.ShortestPaths(host, guest, embed.IdentityMap(4))
	packets := FromEmbedding(e)
	if len(packets) != 3 {
		t.Fatalf("packets = %d, want 3", len(packets))
	}
}

func TestFromEmbeddingDropsTrivial(t *testing.T) {
	host := pathGraph(3)
	guest := multigraph.New(3)
	guest.AddEdge(0, 1, 1)
	e := embed.ShortestPaths(host, guest, []int{1, 1, 1}) // collapses
	if got := FromEmbedding(e); len(got) != 0 {
		t.Fatalf("trivial paths kept: %v", got)
	}
}

// The LMR guarantee at Θ-level: makespan stays within a small constant of
// max(c, d) on a realistic instance (all-pairs traffic on a mesh).
func TestGreedyNearOptimalOnMesh(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := topology.Mesh(2, 6)
	tr := traffic.NewSymmetric(36).Graph()
	e := embed.RandomShortestPaths(m.Graph, tr, embed.IdentityMap(36), rng)
	packets := FromEmbedding(e)
	r := Greedy(m.Graph, packets, rng)
	lb := r.LowerBound()
	if int64(r.Makespan) < lb {
		t.Fatalf("makespan %d below lower bound %d", r.Makespan, lb)
	}
	if int64(r.Makespan) > 4*lb {
		t.Fatalf("makespan %d vs lower bound %d: not O(c+d)-ish", r.Makespan, lb)
	}
}

func TestRandomDelayNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := topology.DeBruijn(5)
	tr := traffic.NewSymmetric(32).Graph()
	e := embed.RandomShortestPaths(m.Graph, tr, embed.IdentityMap(32), rng)
	packets := FromEmbedding(e)
	r := RandomDelay(m.Graph, packets, 1.0, rng)
	lb := r.LowerBound()
	if int64(r.Makespan) < lb || int64(r.Makespan) > 5*lb {
		t.Fatalf("makespan %d vs lower bound %d", r.Makespan, lb)
	}
}

// Property: makespan always >= max(c, d) and stalls are non-negative;
// the timetable respects wire capacity by construction.
func TestPropertyMakespanAboveLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := topology.Ring(8 + rng.Intn(8))
		tr := multigraph.New(m.N())
		for i := 0; i < 12; i++ {
			u, v := rng.Intn(m.N()), rng.Intn(m.N())
			if u != v {
				tr.AddEdge(u, v, int64(1+rng.Intn(2)))
			}
		}
		if tr.E() == 0 {
			return true
		}
		e := embed.RandomShortestPaths(m.Graph, tr, embed.IdentityMap(m.N()), rng)
		packets := FromEmbedding(e)
		if len(packets) == 0 {
			return true
		}
		g := Greedy(m.Graph, packets, rng)
		d := RandomDelay(m.Graph, packets, 1.0, rng)
		return int64(g.Makespan) >= g.LowerBound() && int64(d.Makespan) >= d.LowerBound()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
