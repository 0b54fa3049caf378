package topology

import (
	"fmt"
	"math/bits"

	"repro/internal/multigraph"
)

// Implicit adjacency: the hypercube, mesh, and torus families are defined
// by closed-form neighbour rules, so a million-vertex machine does not need
// a materialized edge list — neighbours, degrees, distances, and dense
// directed-edge ids are all computable on the fly. An *Implicit carries
// those rules; a Machine with a non-nil Implicit field (and a nil Graph)
// routes through them.
//
// The contract that makes implicit and explicit runs bit-identical is
// ordering: for every vertex u the neighbours enumerate in ascending
// vertex-id order — exactly the order multigraph.Neighbors returns — and
// the directed edge u->v gets the dense id u*MaxDeg()+rank, where rank is
// v's position in that order. Those ids are order-isomorphic to the
// CSR ids an explicit engine assigns (both number edges by (u asc, v asc)),
// so every id-ordered tie-break (topEdges) agrees between representations.

type implicitKind int

const (
	implHypercube implicitKind = iota
	implMesh
	implTorus
)

// MaxImplicitDim bounds the dimension of implicit meshes and tori; the
// per-vertex coordinate scratch in the routing hot path is a fixed-size
// array of this length, so materialized meshes and tori of higher
// dimension route on BFS distance fields instead of the closed form.
const MaxImplicitDim = 8

// Implicit generates the adjacency of one geometric machine on demand.
type Implicit struct {
	kind   implicitKind
	n      int
	order  int // hypercube: lg n
	dim    int // mesh/torus
	side   int // mesh/torus
	maxDeg int
	stride [MaxImplicitDim]int // side^d, mesh/torus
}

// N returns the vertex count.
func (im *Implicit) N() int { return im.n }

// MaxDeg returns the maximum vertex degree — the per-vertex width of the
// dense directed-edge id space (edge u->v has id u*MaxDeg()+rank).
func (im *Implicit) MaxDeg() int { return im.maxDeg }

// Hypercube reports the order when the generator is a hypercube.
func (im *Implicit) Hypercube() (order int, ok bool) {
	if im.kind != implHypercube {
		return 0, false
	}
	return im.order, true
}

// Grid reports the dimension, side, and wraparound flag when the generator
// is a mesh or torus.
func (im *Implicit) Grid() (dim, side int, wrap, ok bool) {
	if im.kind == implHypercube {
		return 0, 0, false, false
	}
	return im.dim, im.side, im.kind == implTorus, true
}

// Degree returns the degree of vertex u.
func (im *Implicit) Degree(u int) int {
	switch im.kind {
	case implHypercube, implTorus:
		return im.maxDeg
	default:
		deg := 0
		for d := 0; d < im.dim; d++ {
			c := (u / im.stride[d]) % im.side
			if c > 0 {
				deg++
			}
			if c < im.side-1 {
				deg++
			}
		}
		return deg
	}
}

// VisitNeighbors calls visit for every neighbour v of u in ascending
// vertex-id order; slot is v's rank in that order (the low part of the
// directed edge id u*MaxDeg()+slot).
func (im *Implicit) VisitNeighbors(u int, visit func(slot, v int)) {
	switch im.kind {
	case implHypercube:
		slot := 0
		// Set bits high-to-low give the below-u neighbours in ascending order.
		for d := uint(u); d != 0; {
			i := bits.Len(d) - 1
			d &^= 1 << i
			visit(slot, u^(1<<i))
			slot++
		}
		// Clear bits low-to-high give the above-u neighbours in ascending order.
		for i := 0; i < im.order; i++ {
			if u&(1<<i) == 0 {
				visit(slot, u^(1<<i))
				slot++
			}
		}
	case implMesh:
		slot := 0
		// Minus-steps by descending dimension are the below-u neighbours in
		// ascending order (stride shrinks with d).
		for d := im.dim - 1; d >= 0; d-- {
			if (u/im.stride[d])%im.side > 0 {
				visit(slot, u-im.stride[d])
				slot++
			}
		}
		for d := 0; d < im.dim; d++ {
			if (u/im.stride[d])%im.side < im.side-1 {
				visit(slot, u+im.stride[d])
				slot++
			}
		}
	case implTorus:
		var nbr [2 * MaxImplicitDim]int
		k := im.appendTorusNeighbors(u, nbr[:0])
		for slot, v := range k {
			visit(slot, v)
		}
	}
}

// appendTorusNeighbors collects u's torus neighbours sorted ascending.
// Wraparound breaks the mesh's monotone orderings, so the ≤2·dim candidates
// are gathered and insertion-sorted.
func (im *Implicit) appendTorusNeighbors(u int, out []int) []int {
	for d := 0; d < im.dim; d++ {
		c := (u / im.stride[d]) % im.side
		minus := u - im.stride[d]
		if c == 0 {
			minus = u + (im.side-1)*im.stride[d]
		}
		plus := u + im.stride[d]
		if c == im.side-1 {
			plus = u - (im.side-1)*im.stride[d]
		}
		out = append(out, minus, plus)
	}
	for i := 1; i < len(out); i++ {
		v := out[i]
		j := i - 1
		for j >= 0 && out[j] > v {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = v
	}
	return out
}

// Neighbor returns the neighbour of u at the given rank slot, or -1 when
// the slot is empty (mesh boundary vertices have degree below MaxDeg).
func (im *Implicit) Neighbor(u, slot int) int {
	found := -1
	im.VisitNeighbors(u, func(s, v int) {
		if s == slot {
			found = v
		}
	})
	return found
}

// Distance returns the exact graph distance between u and v. The routing
// engine uses it as the fault-free distance on every hypercube, mesh and
// torus it routes with a closed-form next hop, materialized or implicit,
// so the closed form lives only here.
func (im *Implicit) Distance(u, v int) int {
	switch im.kind {
	case implHypercube:
		return bits.OnesCount(uint(u ^ v))
	default:
		wrap := im.kind == implTorus
		d := 0
		for k := 0; k < im.dim; k++ {
			cu, cv := u%im.side, v%im.side
			u /= im.side
			v /= im.side
			delta := cu - cv
			if delta < 0 {
				delta = -delta
			}
			if wrap && im.side-delta < delta {
				delta = im.side - delta
			}
			d += delta
		}
		return d
	}
}

// E returns the undirected edge count.
func (im *Implicit) E() int64 {
	switch im.kind {
	case implHypercube:
		return int64(im.n) * int64(im.order) / 2
	case implTorus:
		return int64(im.dim) * int64(im.n)
	default:
		return int64(im.dim) * int64(im.n/im.side) * int64(im.side-1)
	}
}

// Edges materializes the undirected edge list in exactly the order
// multigraph.Edges() yields for the explicit twin: u ascending, then v
// ascending, every multiplicity 1. FaultPlan.Materialize iterates this
// order, which is what keeps fault schedules identical across
// representations.
func (im *Implicit) Edges() []multigraph.Edge {
	out := make([]multigraph.Edge, 0, im.E())
	var scratch [2 * MaxImplicitDim]int
	for u := 0; u < im.n; u++ {
		switch im.kind {
		case implHypercube:
			for i := 0; i < im.order; i++ {
				if u&(1<<i) == 0 {
					out = append(out, multigraph.Edge{U: u, V: u ^ (1 << i), Mult: 1})
				}
			}
		case implMesh:
			for d := 0; d < im.dim; d++ {
				if (u/im.stride[d])%im.side < im.side-1 {
					out = append(out, multigraph.Edge{U: u, V: u + im.stride[d], Mult: 1})
				}
			}
		case implTorus:
			up := scratch[:0]
			for d := 0; d < im.dim; d++ {
				c := (u / im.stride[d]) % im.side
				if c < im.side-1 {
					up = append(up, u+im.stride[d])
				}
				if c == 0 {
					up = append(up, u+(im.side-1)*im.stride[d])
				}
			}
			for i := 1; i < len(up); i++ {
				v := up[i]
				j := i - 1
				for j >= 0 && up[j] > v {
					up[j+1] = up[j]
					j--
				}
				up[j+1] = v
			}
			for _, v := range up {
				out = append(out, multigraph.Edge{U: u, V: v, Mult: 1})
			}
		}
	}
	return out
}

// maxInt32 guards the dense directed-edge id space n*maxDeg, which the
// routing simulator indexes with int32.
const maxEdgeIDSpace = 1<<31 - 1

// ImplicitWeakHypercube returns the order-d weak (one-port) hypercube as an
// implicit machine: same Family, Name, size, and per-vertex capacity as
// WeakHypercube(order), but with generated adjacency and no edge list.
// Orders up to 26 are accepted (the explicit constructor stops at 22).
func ImplicitWeakHypercube(order int) *Machine {
	checkOrder("ImplicitWeakHypercube", order, 26)
	n := 1 << order
	if int64(n)*int64(order) > maxEdgeIDSpace {
		panic(fmt.Sprintf("topology: ImplicitWeakHypercube order %d exceeds the edge-id space", order))
	}
	im := &Implicit{kind: implHypercube, n: n, order: order, maxDeg: order}
	m := &Machine{
		Family: WeakHypercubeFamily, Name: fmt.Sprintf("WeakHypercube[%d]", n),
		Implicit: im, Procs: n, Side: order, UniformCap: 1,
	}
	return m.validate()
}

// ImplicitMesh returns the dim-dimensional mesh with the given side as an
// implicit machine — the twin of Mesh(dim, side) without the edge list.
func ImplicitMesh(dim, side int) *Machine {
	return implicitGrid(implMesh, "Mesh", MeshFamily, dim, side, 2)
}

// ImplicitTorus returns the dim-dimensional torus with the given side as an
// implicit machine — the twin of Torus(dim, side) without the edge list.
func ImplicitTorus(dim, side int) *Machine {
	return implicitGrid(implTorus, "Torus", TorusFamily, dim, side, 3)
}

func implicitGrid(kind implicitKind, label string, fam Family, dim, side, minSide int) *Machine {
	checkMeshParams("Implicit"+label, dim, side)
	if side < minSide {
		panic(fmt.Sprintf("topology: Implicit%s side %d < %d", label, side, minSide))
	}
	if dim > MaxImplicitDim {
		panic(fmt.Sprintf("topology: Implicit%s dimension %d > %d", label, dim, MaxImplicitDim))
	}
	n := pow(side, dim)
	if int64(n)*int64(2*dim) > maxEdgeIDSpace {
		panic(fmt.Sprintf("topology: Implicit%s %d^%d exceeds the edge-id space", label, side, dim))
	}
	im := &Implicit{kind: kind, n: n, dim: dim, side: side, maxDeg: 2 * dim}
	for d := 0; d < dim; d++ {
		im.stride[d] = pow(side, d)
	}
	m := &Machine{
		Family: fam, Name: fmt.Sprintf("%s%d[%d]", label, dim, n),
		Implicit: im, Procs: n, Dim: dim, Side: side,
	}
	return m.validate()
}

// ImplicitSupported reports whether the family has an implicit generator.
func ImplicitSupported(f Family) bool {
	switch f {
	case WeakHypercubeFamily, MeshFamily, TorusFamily:
		return true
	}
	return false
}

// BuildImplicit is Build for the implicit families: it applies the same
// parameter rounding (so the machine it names is the one Build would have
// named) and returns the generated machine. Families without a generator
// get an error.
func BuildImplicit(f Family, dim, approxN int) (*Machine, error) {
	if approxN < 4 {
		approxN = 4
	}
	switch f {
	case WeakHypercubeFamily:
		return ImplicitWeakHypercube(bestOrder(approxN, func(d int) int { return 1 << d }, 1)), nil
	case MeshFamily:
		return ImplicitMesh(needDim(f, dim), nearestSide(approxN, dim, 2)), nil
	case TorusFamily:
		return ImplicitTorus(needDim(f, dim), nearestSide(approxN, dim, 3)), nil
	default:
		return nil, fmt.Errorf("topology: family %v has no implicit generator (want WeakHypercube, Mesh, or Torus)", f)
	}
}

// ImplicitTwin returns the implicit machine equivalent to m, if its family
// has a generator and m is a pristine instance of it. Implicit machines
// return themselves. The twin has the same Name, size, and capacities, so
// simulation results on it are byte-identical.
func ImplicitTwin(m *Machine) (*Machine, bool) {
	if m.Implicit != nil {
		return m, true
	}
	switch m.Family {
	case WeakHypercubeFamily:
		// The strong hypercube shares the family but has no caps; only the
		// weak (uniformly capped) machine has an implicit twin.
		order := m.Side
		if order < 1 || order > 26 || m.Procs != 1<<order || m.VertexCap == nil {
			return nil, false
		}
		tw := ImplicitWeakHypercube(order)
		if tw.Name != m.Name || tw.EdgeCount() != m.Graph.E() {
			return nil, false
		}
		return tw, true
	case MeshFamily, TorusFamily:
		if m.Dim < 1 || m.Dim > MaxImplicitDim || m.Side < 2 || m.Procs != pow(m.Side, m.Dim) || m.VertexCap != nil {
			return nil, false
		}
		if m.Family == TorusFamily && m.Side < 3 {
			return nil, false
		}
		var tw *Machine
		if m.Family == MeshFamily {
			tw = ImplicitMesh(m.Dim, m.Side)
		} else {
			tw = ImplicitTorus(m.Dim, m.Side)
		}
		if tw.Name != m.Name || tw.EdgeCount() != m.Graph.E() {
			return nil, false
		}
		return tw, true
	}
	return nil, false
}

// Materialize returns the explicit twin of an implicit machine (building
// the multigraph); explicit machines return themselves. It is the escape
// hatch for analyses that need a real edge list (spectral bounds, diameter
// estimation).
func (m *Machine) Materialize() *Machine {
	if m.Implicit == nil {
		return m
	}
	switch m.Implicit.kind {
	case implHypercube:
		return WeakHypercube(m.Implicit.order)
	case implMesh:
		return Mesh(m.Implicit.dim, m.Implicit.side)
	default:
		return Torus(m.Implicit.dim, m.Implicit.side)
	}
}
