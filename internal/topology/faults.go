package topology

import (
	"fmt"
	"math/rand"

	"repro/internal/multigraph"
)

// Fault injection: degraded copies of a machine with wires or processors
// knocked out. The multibutterfly's expander splitters make it robust to
// faults that disconnect or strangle an ordinary butterfly — an effect the
// fault-tolerance experiments measure directly.

// DeleteRandomEdges returns a copy of m with each distinct wire removed
// independently with probability frac (all parallel wires of the pair go
// together). The name gains a "/faults" suffix. The result may be
// disconnected; callers that need connectivity must check.
//
// frac must be in [0, 1): frac == 0 is allowed and returns an intact clone
// (a zero-fault baseline), while frac == 1 is rejected — deleting every
// wire with certainty would leave no machine to measure. For dynamic
// mid-run faults use a FaultPlan/FaultSchedule instead.
func DeleteRandomEdges(m *Machine, frac float64, rng *rand.Rand) *Machine {
	if frac < 0 || frac >= 1 {
		panic(fmt.Sprintf("topology: deleting wires of %s with probability %v is out of range: the fault fraction must be in [0,1) (1 would delete all %d wires)",
			m.Name, frac, m.Graph.DistinctEdges()))
	}
	g := m.Graph.Clone()
	for _, e := range m.Graph.Edges() {
		if rng.Float64() < frac {
			g.RemoveEdge(e.U, e.V, e.Mult)
		}
	}
	out := *m
	out.Graph = g
	out.Name = m.Name + "/faults"
	return &out
}

// DeleteRandomProcessors returns a copy of m with `count` random processors
// failed: a failed processor keeps its vertex (indices are stable) but
// loses all its wires, and Faulty reports it. Switch vertices never fail.
func DeleteRandomProcessors(m *Machine, count int, rng *rand.Rand) (*Machine, map[int]bool) {
	switch {
	case count < 0:
		panic(fmt.Sprintf("topology: negative fault count %d", count))
	case count >= m.N() && m.N() == 1:
		panic(fmt.Sprintf("topology: %s has a single processor; it cannot lose any (count=%d)", m.Name, count))
	case count >= m.N():
		panic(fmt.Sprintf("topology: failing %d of %d processors would leave none alive; at most %d may fail", count, m.N(), m.N()-1))
	}
	g := m.Graph.Clone()
	failed := make(map[int]bool, count)
	perm := rng.Perm(m.N())
	for _, v := range perm[:count] {
		failed[v] = true
		// Walk the intact graph's view: removing edges edits the clone's.
		for _, u := range m.Graph.Neighbors(v) {
			g.RemoveEdge(v, u, g.Multiplicity(v, u))
		}
	}
	out := *m
	out.Graph = g
	out.Name = m.Name + "/faults"
	return &out, failed
}

// LargestLiveComponent returns the connected component of m's graph
// holding the most live processors (those not in failed), with that count.
// On a tie it returns the component with the smallest member, the first in
// Components' order. The component keeps its switch vertices and failed
// processors.
func LargestLiveComponent(m *Machine, failed map[int]bool) (comp []int, live int) {
	live = -1
	for _, c := range m.Graph.Components() {
		count := 0
		for _, v := range c {
			if v < m.N() && !failed[v] {
				count++
			}
		}
		if count > live {
			comp, live = c, count
		}
	}
	return comp, live
}

// LargestComponentFraction returns the fraction of m's processors inside
// the largest connected component of the (possibly degraded) graph,
// ignoring the given failed set. 1.0 means all surviving processors still
// talk to each other.
func LargestComponentFraction(m *Machine, failed map[int]bool) float64 {
	surviving := 0
	for v := 0; v < m.N(); v++ {
		if !failed[v] {
			surviving++
		}
	}
	if surviving == 0 {
		return 0
	}
	_, best := LargestLiveComponent(m, failed)
	return float64(best) / float64(surviving)
}

// SurvivingSubmachine extracts the largest component of a degraded machine
// as a standalone machine (processors renumbered 0..k-1), for running
// measurements on what's left. Vertex caps are remapped; switch vertices
// outside the component are dropped.
func SurvivingSubmachine(m *Machine, failed map[int]bool) *Machine {
	bestComp, _ := LargestLiveComponent(m, failed)
	// Renumber: surviving processors first, then switches, preserving the
	// processors-are-a-prefix invariant.
	oldToNew := make(map[int]int, len(bestComp))
	procs := 0
	for _, v := range bestComp {
		if v < m.N() && !failed[v] {
			oldToNew[v] = procs
			procs++
		}
	}
	next := procs
	for _, v := range bestComp {
		if _, ok := oldToNew[v]; !ok {
			oldToNew[v] = next
			next++
		}
	}
	g := multigraph.New(next)
	for _, v := range bestComp {
		for _, u := range m.Graph.Neighbors(v) {
			nu, ok := oldToNew[u]
			if !ok {
				continue
			}
			nv := oldToNew[v]
			if nv < nu {
				g.AddEdge(nv, nu, m.Graph.Multiplicity(v, u))
			}
		}
	}
	var caps map[int]int64
	if m.VertexCap != nil {
		caps = make(map[int]int64)
		for v, c := range m.VertexCap {
			if nv, ok := oldToNew[v]; ok {
				caps[nv] = c
			}
		}
	}
	out := &Machine{
		Family:    m.Family,
		Name:      m.Name + "/survivor",
		Graph:     g,
		Procs:     procs,
		Dim:       m.Dim,
		Side:      m.Side,
		VertexCap: caps,
	}
	if procs != m.Procs || next != m.Graph.N() {
		// The survivor lost vertices, so the family's coordinate geometry
		// (Side^Dim processors for mesh-likes) no longer describes it.
		// Carrying the parameters forward would let geometry-aware code —
		// emulation.ContractionMap's coordinate scaling in particular —
		// decode coordinates of processors that no longer exist and assign
		// work to them. Clear them; consumers fall back to graph-based paths.
		out.Dim = 0
		out.Side = 0
	}
	return out.validate()
}
