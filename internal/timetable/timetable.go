// Package timetable implements offline packet scheduling along fixed paths —
// the substrate behind the universal routing result the paper's Theorem 6
// leans on (Leighton, Maggs & Rao: any set of paths with congestion c and
// dilation d can be scheduled in O(c + d) steps).
//
// Given explicit routing paths on a host graph, the schedulers here build a
// timetable in which each wire carries at most its multiplicity per step
// and each packet advances at most one hop per step. Two strategies are
// provided: earliest-fit greedy (packets in random order reserve the first
// feasible slot per hop) and the classic random-initial-delay schedule.
// Both achieve makespans within small constants of the max(c, d) lower
// bound on the paper's machines, which is all the Θ-level analysis needs.
package timetable

import (
	"fmt"
	"math/rand"

	"repro/internal/embed"
	"repro/internal/multigraph"
)

// Packet is one message with a fixed routing path (host vertices; length
// >= 2 — trivial packets should be filtered out by the caller).
type Packet struct {
	Path []int
}

// Result reports a computed timetable.
type Result struct {
	Makespan int // steps until the last packet arrives
	// Congestion is the max per-wire load of the path set, Dilation the
	// longest path: max(Congestion, Dilation) lower-bounds any schedule.
	Congestion int64
	Dilation   int
	// Stalls counts packet-steps spent waiting on busy wires.
	Stalls int64
}

// LowerBound returns max(Congestion, Dilation).
func (r Result) LowerBound() int64 {
	if int64(r.Dilation) > r.Congestion {
		return int64(r.Dilation)
	}
	return r.Congestion
}

// FromEmbedding expands an embedding into individual packets: a guest edge
// of multiplicity m becomes m identical packets. Trivial (single-vertex)
// paths are dropped.
func FromEmbedding(e *embed.Embedding) []Packet {
	var out []Packet
	for _, p := range e.Paths {
		if len(p.Vertices) < 2 {
			continue
		}
		for k := int64(0); k < p.GuestEdge.Mult; k++ {
			out = append(out, Packet{Path: p.Vertices})
		}
	}
	return out
}

type slotKey struct {
	u, v int // directed wire
	t    int
}

// scheduler holds shared reservation state.
type scheduler struct {
	host  *multigraph.Multigraph
	slots map[slotKey]int64
}

func newScheduler(host *multigraph.Multigraph, packets []Packet) *scheduler {
	for _, p := range packets {
		if len(p.Path) < 2 {
			panic("schedule: trivial packet path")
		}
		for i := 0; i+1 < len(p.Path); i++ {
			if !host.HasEdge(p.Path[i], p.Path[i+1]) {
				panic(fmt.Sprintf("schedule: path step %d-%d is not a host wire", p.Path[i], p.Path[i+1]))
			}
		}
	}
	return &scheduler{host: host, slots: make(map[slotKey]int64)}
}

// placeFrom schedules one packet starting no earlier than start, reserving
// slots hop by hop at the earliest feasible times. Returns the arrival time
// and the number of stalls.
func (s *scheduler) placeFrom(p Packet, start int) (int, int64) {
	t := start - 1
	var stalls int64
	for i := 0; i+1 < len(p.Path); i++ {
		u, v := p.Path[i], p.Path[i+1]
		capacity := s.host.Multiplicity(u, v)
		t++
		for s.slots[slotKey{u: u, v: v, t: t}] >= capacity {
			t++
			stalls++
		}
		s.slots[slotKey{u: u, v: v, t: t}]++
	}
	return t + 1, stalls
}

// measure computes the congestion and dilation of the path set. Congestion
// is per *directed* wire — the timetable is full duplex, so opposite
// directions never contend — which keeps max(c, d) a true lower bound on
// the makespan.
func measure(host *multigraph.Multigraph, packets []Packet) (int64, int) {
	loads := make(map[[2]int]int64)
	dil := 0
	for _, p := range packets {
		if l := len(p.Path) - 1; l > dil {
			dil = l
		}
		for i := 0; i+1 < len(p.Path); i++ {
			loads[[2]int{p.Path[i], p.Path[i+1]}]++
		}
	}
	var c int64
	for k, load := range loads {
		per := (load + host.Multiplicity(k[0], k[1]) - 1) / host.Multiplicity(k[0], k[1])
		if per > c {
			c = per
		}
	}
	return c, dil
}

// Greedy builds an earliest-fit timetable over the packets in random order.
func Greedy(host *multigraph.Multigraph, packets []Packet, rng *rand.Rand) Result {
	c, d := measure(host, packets)
	res := Result{Congestion: c, Dilation: d}
	if len(packets) == 0 {
		return res
	}
	s := newScheduler(host, packets)
	order := rng.Perm(len(packets))
	for _, pi := range order {
		arrive, stalls := s.placeFrom(packets[pi], 0)
		res.Stalls += stalls
		if arrive > res.Makespan {
			res.Makespan = arrive
		}
	}
	return res
}

// RandomDelay builds the classic random-initial-delay timetable: each
// packet draws a delay uniform in [0, spread*congestion] and then proceeds
// earliest-fit from there. With the paper's parameters this is O(c + d)
// with high probability.
func RandomDelay(host *multigraph.Multigraph, packets []Packet, spread float64, rng *rand.Rand) Result {
	c, d := measure(host, packets)
	res := Result{Congestion: c, Dilation: d}
	if len(packets) == 0 {
		return res
	}
	if spread <= 0 {
		spread = 1
	}
	window := int(spread*float64(c)) + 1
	s := newScheduler(host, packets)
	order := rng.Perm(len(packets))
	for _, pi := range order {
		delay := rng.Intn(window)
		arrive, stalls := s.placeFrom(packets[pi], delay)
		res.Stalls += stalls
		if arrive > res.Makespan {
			res.Makespan = arrive
		}
	}
	return res
}
