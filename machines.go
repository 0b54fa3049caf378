package netemu

import (
	"math/rand"

	"repro/internal/topology"
)

// Machine is a concrete network-machine instance: a multigraph of
// processors (and, for bus-like machines, switch vertices) plus forwarding
// capacities. See the topology package for the structural details.
type Machine = topology.Machine

// Family identifies a machine family from the paper.
type Family = topology.Family

// The machine families the paper analyses.
const (
	LinearArray         = topology.LinearArrayFamily
	Ring                = topology.RingFamily
	GlobalBus           = topology.GlobalBusFamily
	Tree                = topology.TreeFamily
	WeakPPN             = topology.WeakPPNFamily
	XTree               = topology.XTreeFamily
	Mesh                = topology.MeshFamily
	Torus               = topology.TorusFamily
	XGrid               = topology.XGridFamily
	MeshOfTrees         = topology.MeshOfTreesFamily
	Multigrid           = topology.MultigridFamily
	Pyramid             = topology.PyramidFamily
	Butterfly           = topology.ButterflyFamily
	WrappedButterfly    = topology.WrappedButterflyFamily
	CubeConnectedCycles = topology.CubeConnectedCyclesFamily
	ShuffleExchange     = topology.ShuffleExchangeFamily
	DeBruijn            = topology.DeBruijnFamily
	WeakHypercube       = topology.WeakHypercubeFamily
	Multibutterfly      = topology.MultibutterflyFamily
	Expander            = topology.ExpanderFamily
)

// Families lists every family in a stable order.
func Families() []Family { return topology.Families() }

// NewMachine builds an instance of the family with processor count as
// close as possible to approxN. dim is required for the dimensioned
// families (Mesh, Torus, XGrid, MeshOfTrees, Multigrid, Pyramid) and
// ignored otherwise. seed drives the randomized families (Expander,
// Multibutterfly) and is ignored otherwise.
func NewMachine(f Family, dim, approxN int, seed int64) *Machine {
	return topology.Build(f, dim, approxN, rand.New(rand.NewSource(seed)))
}

// Exact constructors for callers that need precise structural parameters
// rather than approximate sizes.
var (
	// NewLinearArray returns the n-processor linear array.
	NewLinearArray = topology.LinearArray
	// NewRing returns the n-processor ring.
	NewRing = topology.Ring
	// NewGlobalBus returns n processors on a shared serializing bus.
	NewGlobalBus = topology.GlobalBus
	// NewTree returns the complete binary tree with the given levels.
	NewTree = topology.Tree
	// NewXTree returns the X-tree (tree plus within-level edges).
	NewXTree = topology.XTree
	// NewWeakPPN returns the weak parallel prefix network over n leaves.
	NewWeakPPN = topology.WeakPPN
	// NewMesh returns the dim-dimensional mesh with the given side.
	NewMesh = topology.Mesh
	// NewTorus returns the dim-dimensional torus with the given side.
	NewTorus = topology.Torus
	// NewXGrid returns the mesh plus all 2-face diagonals.
	NewXGrid = topology.XGrid
	// NewMeshOfTrees returns the dim-dimensional mesh of trees.
	NewMeshOfTrees = topology.MeshOfTrees
	// NewMultigrid returns the dim-dimensional multigrid.
	NewMultigrid = topology.Multigrid
	// NewPyramid returns the dim-dimensional pyramid.
	NewPyramid = topology.Pyramid
	// NewButterfly returns the order-d butterfly.
	NewButterfly = topology.Butterfly
	// NewWrappedButterfly returns the order-d wrapped butterfly.
	NewWrappedButterfly = topology.WrappedButterfly
	// NewCubeConnectedCycles returns the order-d CCC.
	NewCubeConnectedCycles = topology.CubeConnectedCycles
	// NewShuffleExchange returns the order-d shuffle-exchange graph.
	NewShuffleExchange = topology.ShuffleExchange
	// NewDeBruijn returns the order-d de Bruijn graph.
	NewDeBruijn = topology.DeBruijn
	// NewWeakHypercube returns the one-port hypercube of the given order.
	NewWeakHypercube = topology.WeakHypercube
	// NewStrongHypercube returns the all-port hypercube — not a paper
	// machine (degree grows), but the contrast for the weak model.
	NewStrongHypercube = topology.StrongHypercube
)

// NewExpander returns a random 4-regular expander on n vertices.
func NewExpander(n int, seed int64) *Machine {
	return topology.Expander(n, rand.New(rand.NewSource(seed)))
}

// NewMultibutterfly returns an order-d multibutterfly with 2-way random
// splitters.
func NewMultibutterfly(order int, seed int64) *Machine {
	return topology.Multibutterfly(order, rand.New(rand.NewSource(seed)))
}

// DegradeEdges returns a copy of m with each wire removed independently
// with probability frac — fault injection for robustness experiments.
// The result may be disconnected; use Survivor to extract the largest
// component.
func DegradeEdges(m *Machine, frac float64, seed int64) *Machine {
	return topology.DeleteRandomEdges(m, frac, rand.New(rand.NewSource(seed)))
}

// Survivor extracts the largest connected component of a degraded machine
// as a standalone machine, renumbered with processors first.
func Survivor(m *Machine) *Machine {
	return topology.SurvivingSubmachine(m, nil)
}

// SurvivalFraction reports the fraction of processors in the largest
// component of a (possibly degraded) machine.
func SurvivalFraction(m *Machine) float64 {
	return topology.LargestComponentFraction(m, nil)
}
