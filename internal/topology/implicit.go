package topology

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/multigraph"
)

// Implicit adjacency: the hypercube, mesh, and torus families are defined
// by closed-form neighbour rules, so a million-vertex machine does not need
// a materialized edge list — neighbours, degrees and dense directed-edge
// ids are all computable on the fly. An *Implicit carries
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

// MaxImplicitDegree bounds the vertex degree of every implicit machine: it
// is the hypercube's order cap, and meshes and tori stop at
// 2·MaxImplicitDim. A [MaxImplicitDegree]int32 buffer therefore holds any
// vertex's neighbours (AppendNeighbors).
const MaxImplicitDegree = 26

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

// AppendNeighbors appends u's neighbours to out in ascending vertex-id order
// and returns the extended slice; v's rank in that order is the low part of
// the directed edge id u*MaxDeg()+rank. Vertex ids fit in int32 because the
// constructors bound the edge-id space. This is the one neighbour
// enumeration: Neighbor, Edges and the routing engine all walk it, and a
// caller that passes a [MaxImplicitDegree]int32 stack buffer allocates
// nothing.
func (im *Implicit) AppendNeighbors(out []int32, u int) []int32 {
	switch im.kind {
	case implHypercube:
		// Set bits high-to-low give the below-u neighbours in ascending
		// order, clear bits low-to-high the above-u ones.
		for d := uint(u); d != 0; {
			i := bits.Len(d) - 1
			d &^= 1 << i
			out = append(out, int32(u^(1<<i)))
		}
		for i := 0; i < im.order; i++ {
			if u&(1<<i) == 0 {
				out = append(out, int32(u^(1<<i)))
			}
		}
	case implMesh:
		// Minus-steps by descending dimension are the below-u neighbours in
		// ascending order (stride shrinks with d), plus-steps by ascending
		// dimension the above-u ones.
		for d := im.dim - 1; d >= 0; d-- {
			if (u/im.stride[d])%im.side > 0 {
				out = append(out, int32(u-im.stride[d]))
			}
		}
		for d := 0; d < im.dim; d++ {
			if (u/im.stride[d])%im.side < im.side-1 {
				out = append(out, int32(u+im.stride[d]))
			}
		}
	case implTorus:
		// Wraparound breaks the mesh's monotone orderings, so the 2·dim
		// candidates are gathered and sorted.
		start := len(out)
		for d := 0; d < im.dim; d++ {
			c := (u / im.stride[d]) % im.side
			minus, plus := u-im.stride[d], u+im.stride[d]
			if c == 0 {
				minus = u + (im.side-1)*im.stride[d]
			}
			if c == im.side-1 {
				plus = u - (im.side-1)*im.stride[d]
			}
			out = append(out, int32(minus), int32(plus))
		}
		slices.Sort(out[start:])
	}
	return out
}

// Neighbor returns the neighbour of u at the given rank slot, or -1 when
// the slot is empty (mesh boundary vertices have degree below MaxDeg).
func (im *Implicit) Neighbor(u, slot int) int {
	var buf [MaxImplicitDegree]int32
	if nb := im.AppendNeighbors(buf[:0], u); 0 <= slot && slot < len(nb) {
		return int(nb[slot])
	}
	return -1
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
	var buf [MaxImplicitDegree]int32
	for u := 0; u < im.n; u++ {
		for _, v := range im.AppendNeighbors(buf[:0], u) {
			if int(v) > u {
				out = append(out, multigraph.Edge{U: u, V: int(v), Mult: 1})
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
	checkOrder("ImplicitWeakHypercube", order, MaxImplicitDegree)
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

// Materialize returns the explicit twin of an implicit machine (building
// the multigraph); explicit machines return themselves. It is the escape
// hatch for analyses that need a real edge list (bisection and flux
// bounds, diameter estimation).
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
