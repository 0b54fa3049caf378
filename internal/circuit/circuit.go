// Package circuit implements the redundant computation circuits the paper's
// emulation model is built on (following Koch et al.'s work-preserving
// emulations).
//
// A t-step computation of guest G is represented by a circuit: a layered
// directed graph whose nodes are 3-tuples (u, i, c) — guest vertex u, time
// step i, copy number c. All copies of (u, i) form a class; its size is the
// duplicity. Arcs run between consecutive levels: identity arcs join copies
// of the same vertex, routing arcs join copies of adjacent guest vertices.
// A circuit is valid when every node at level i+1 has an input from some
// representative of each guest in-neighbour and of itself, and efficient
// when it has O(|G| t) nodes — at most a constant factor more work than the
// computation it represents.
package circuit

import (
	"fmt"
	"math/rand"

	"repro/internal/multigraph"
)

// Node identifies a circuit node.
type Node struct {
	Vertex int // guest vertex u
	Level  int // time step i
	Copy   int // copy number c within the class (u, i)
}

// Arc is a data dependency between consecutive levels.
type Arc struct {
	From, To Node
	Identity bool // same guest vertex on both ends
}

// Circuit is a layered redundant computation of a guest graph.
type Circuit struct {
	Guest  *multigraph.Multigraph
	Steps  int // number of computation steps; levels run 0..Steps
	levels [][]Node
	arcs   [][]Arc // arcs[i] connect level i to level i+1
}

// Levels returns the number of levels (Steps + 1).
func (c *Circuit) Levels() int { return len(c.levels) }

// Level returns the nodes of level i (shared slice; treat as read-only).
func (c *Circuit) Level(i int) []Node { return c.levels[i] }

// ArcsFrom returns the arcs from level i to level i+1 (shared slice).
func (c *Circuit) ArcsFrom(i int) []Arc { return c.arcs[i] }

// NodeCount returns the total number of circuit nodes.
func (c *Circuit) NodeCount() int {
	total := 0
	for _, l := range c.levels {
		total += len(l)
	}
	return total
}

// Duplicity returns the copy count of class (u, i).
func (c *Circuit) Duplicity(u, level int) int {
	count := 0
	for _, n := range c.levels[level] {
		if n.Vertex == u {
			count++
		}
	}
	return count
}

// Efficient reports whether the circuit performs at most maxFactor times
// the guest's work: NodeCount <= maxFactor * |G| * (Steps+1).
func (c *Circuit) Efficient(maxFactor float64) bool {
	budget := maxFactor * float64(c.Guest.N()) * float64(c.Steps+1)
	return float64(c.NodeCount()) <= budget
}

// Validate checks the structural invariants: level 0 contains at least one
// representative of every guest vertex; every node at level i+1 has an
// identity input and a routing input from every guest neighbour; arcs only
// join consecutive levels and refer to existing nodes. It returns the first
// violation found.
func (c *Circuit) Validate() error {
	if c.Levels() != c.Steps+1 {
		return fmt.Errorf("circuit: %d levels for %d steps", c.Levels(), c.Steps)
	}
	for u := 0; u < c.Guest.N(); u++ {
		if c.Duplicity(u, 0) < 1 {
			return fmt.Errorf("circuit: vertex %d missing from level 0", u)
		}
	}
	// Index nodes per level for arc validation.
	for i := 0; i < c.Steps; i++ {
		exists := make(map[Node]bool, len(c.levels[i])+len(c.levels[i+1]))
		for _, n := range c.levels[i] {
			exists[n] = true
		}
		for _, n := range c.levels[i+1] {
			exists[n] = true
		}
		// inputs[node] tracks which guest vertices feed it.
		inputs := make(map[Node]map[int]bool)
		for _, a := range c.arcs[i] {
			if a.From.Level != i || a.To.Level != i+1 {
				return fmt.Errorf("circuit: arc %+v does not join levels %d->%d", a, i, i+1)
			}
			if !exists[a.From] || !exists[a.To] {
				return fmt.Errorf("circuit: arc %+v references missing node", a)
			}
			if a.Identity != (a.From.Vertex == a.To.Vertex) {
				return fmt.Errorf("circuit: arc %+v identity flag wrong", a)
			}
			if !a.Identity && !c.Guest.HasEdge(a.From.Vertex, a.To.Vertex) {
				return fmt.Errorf("circuit: routing arc %+v not a guest edge", a)
			}
			if inputs[a.To] == nil {
				inputs[a.To] = make(map[int]bool)
			}
			inputs[a.To][a.From.Vertex] = true
		}
		for _, n := range c.levels[i+1] {
			in := inputs[n]
			if !in[n.Vertex] {
				return fmt.Errorf("circuit: node %+v lacks identity input", n)
			}
			for _, nb := range c.Guest.Neighbors(n.Vertex) {
				if !in[nb] {
					return fmt.Errorf("circuit: node %+v lacks input from neighbour %d", n, nb)
				}
			}
		}
	}
	return nil
}

// NonRedundant builds the canonical duplicity-1 circuit for a t-step
// computation: one copy per vertex per level, with identity and routing
// arcs mirroring the guest's wiring. This is the minimal efficient circuit.
func NonRedundant(guest *multigraph.Multigraph, steps int) *Circuit {
	if steps < 1 {
		panic(fmt.Sprintf("circuit: steps %d < 1", steps))
	}
	c := &Circuit{Guest: guest, Steps: steps}
	n := guest.N()
	c.levels = make([][]Node, steps+1)
	for i := 0; i <= steps; i++ {
		c.levels[i] = make([]Node, n)
		for u := 0; u < n; u++ {
			c.levels[i][u] = Node{Vertex: u, Level: i}
		}
	}
	c.arcs = make([][]Arc, steps)
	for i := 0; i < steps; i++ {
		for u := 0; u < n; u++ {
			from := Node{Vertex: u, Level: i}
			c.arcs[i] = append(c.arcs[i], Arc{From: from, To: Node{Vertex: u, Level: i + 1}, Identity: true})
			for _, v := range guest.Neighbors(u) {
				c.arcs[i] = append(c.arcs[i], Arc{From: from, To: Node{Vertex: v, Level: i + 1}})
			}
		}
	}
	return c
}

// Redundant builds a circuit where every class (u, i) has `duplicity`
// copies; each copy draws its identity input and each neighbour input from
// a uniformly random representative of the corresponding class one level
// down. Redundancy is how an emulation can avoid long-haul communication;
// the paper's lower bound holds for every such circuit, which the tests
// exercise.
func Redundant(guest *multigraph.Multigraph, steps, duplicity int, rng *rand.Rand) *Circuit {
	if steps < 1 {
		panic(fmt.Sprintf("circuit: steps %d < 1", steps))
	}
	if duplicity < 1 {
		panic(fmt.Sprintf("circuit: duplicity %d < 1", duplicity))
	}
	c := &Circuit{Guest: guest, Steps: steps}
	n := guest.N()
	c.levels = make([][]Node, steps+1)
	for i := 0; i <= steps; i++ {
		for u := 0; u < n; u++ {
			for cp := 0; cp < duplicity; cp++ {
				c.levels[i] = append(c.levels[i], Node{Vertex: u, Level: i, Copy: cp})
			}
		}
	}
	c.arcs = make([][]Arc, steps)
	for i := 0; i < steps; i++ {
		for _, to := range c.levels[i+1] {
			pick := func(v int) Node {
				return Node{Vertex: v, Level: i, Copy: rng.Intn(duplicity)}
			}
			c.arcs[i] = append(c.arcs[i], Arc{From: pick(to.Vertex), To: to, Identity: true})
			for _, v := range guest.Neighbors(to.Vertex) {
				c.arcs[i] = append(c.arcs[i], Arc{From: pick(v), To: to})
			}
		}
	}
	return c
}

// CommunicationGraph flattens the circuit into an undirected communication
// multigraph: one vertex per circuit node, one edge per arc. Identity arcs
// are included — on a host they become messages whenever the two copies
// land on different processors. NodeIndex maps circuit nodes to vertices.
func (c *Circuit) CommunicationGraph() (*multigraph.Multigraph, map[Node]int) {
	idx := make(map[Node]int, c.NodeCount())
	for _, level := range c.levels {
		for _, n := range level {
			idx[n] = len(idx)
		}
	}
	g := multigraph.New(len(idx))
	for _, arcs := range c.arcs {
		for _, a := range arcs {
			g.AddEdge(idx[a.From], idx[a.To], 1)
		}
	}
	return g, idx
}
