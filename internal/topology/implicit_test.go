package topology

import (
	"math/rand"
	"reflect"
	"testing"
)

// twinPair couples an implicit machine with its explicit ground truth.
type twinPair struct {
	imp *Machine
	exp *Machine
}

// randomTwinPairs draws a batch of small randomized instances from every
// implicit family, paired with the explicit constructors as ground truth.
func randomTwinPairs(rng *rand.Rand) []twinPair {
	var out []twinPair
	for i := 0; i < 4; i++ {
		order := 1 + rng.Intn(6)
		out = append(out, twinPair{ImplicitWeakHypercube(order), WeakHypercube(order)})
		dim := 1 + rng.Intn(3)
		side := 2 + rng.Intn(4)
		out = append(out, twinPair{ImplicitMesh(dim, side), Mesh(dim, side)})
		side = 3 + rng.Intn(3)
		out = append(out, twinPair{ImplicitTorus(dim, side), Torus(dim, side)})
	}
	return out
}

func TestImplicitNeighborsMatchExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, pair := range randomTwinPairs(rng) {
		im, g := pair.imp.Implicit, pair.exp.Graph
		if pair.imp.Name != pair.exp.Name {
			t.Fatalf("twin names differ: %s vs %s", pair.imp.Name, pair.exp.Name)
		}
		if im.N() != g.N() {
			t.Fatalf("%s: implicit N=%d, explicit N=%d", pair.imp.Name, im.N(), g.N())
		}
		for u := 0; u < g.N(); u++ {
			want := g.Neighbors(u) // sorted ascending
			// Slots count from the end of the caller's prefix, which stays put.
			const prefix = 1 << 30
			nb := im.AppendNeighbors([]int32{prefix}, u)
			if nb[0] != prefix {
				t.Fatalf("%s: vertex %d: the enumeration moved the caller's prefix: %v", pair.imp.Name, u, nb)
			}
			var got []int
			for _, v := range nb[1:] {
				got = append(got, int(v))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: vertex %d neighbours %v, want %v", pair.imp.Name, u, got, want)
			}
			for i := 1; i < len(got); i++ {
				if got[i-1] >= got[i] {
					t.Fatalf("%s: vertex %d neighbours not strictly ascending: %v", pair.imp.Name, u, got)
				}
			}
		}
	}
}

func TestImplicitNeighborSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, pair := range randomTwinPairs(rng) {
		im := pair.imp.Implicit
		for _, u := range []int{0, im.N() / 2, im.N() - 1} {
			deg := implicitDegree(im, u)
			seen := make(map[int]bool)
			for slot := 0; slot < deg; slot++ {
				v := im.Neighbor(u, slot)
				if v < 0 || v >= im.N() || v == u || seen[v] {
					t.Fatalf("%s: Neighbor(%d, %d) = %d invalid", pair.imp.Name, u, slot, v)
				}
				seen[v] = true
			}
			if v := im.Neighbor(u, deg); v != -1 {
				t.Fatalf("%s: Neighbor(%d, %d) past degree = %d, want -1", pair.imp.Name, u, deg, v)
			}
		}
	}
}

func TestImplicitEdgesMatchExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, pair := range randomTwinPairs(rng) {
		got := pair.imp.Implicit.Edges()
		want := pair.exp.Graph.Edges()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: implicit edge list diverges from explicit (lens %d vs %d)", pair.imp.Name, len(got), len(want))
		}
		if e := pair.imp.Implicit.E(); e != int64(len(want)) || e != pair.exp.Graph.E() {
			t.Fatalf("%s: E() = %d, want %d", pair.imp.Name, e, len(want))
		}
		// EdgeList is representation-neutral, so fault materialization draws
		// identical victims on either twin.
		if !reflect.DeepEqual(pair.imp.EdgeList(), pair.exp.EdgeList()) {
			t.Fatalf("%s: Machine.EdgeList diverges across representations", pair.imp.Name)
		}
	}
}

// implicitDegree returns the degree of vertex u.
func implicitDegree(im *Implicit, u int) int {
	return len(im.AppendNeighbors(nil, u))
}

func TestImplicitCapsMatchExplicit(t *testing.T) {
	imp, exp := ImplicitWeakHypercube(4), WeakHypercube(4)
	for v := 0; v < exp.Graph.N(); v++ {
		if imp.Cap(v) != exp.Cap(v) {
			t.Fatalf("WeakHypercube cap of %d: implicit %d, explicit %d", v, imp.Cap(v), exp.Cap(v))
		}
	}
	if ImplicitMesh(2, 3).Cap(0) != -1 {
		t.Fatal("implicit mesh should be uncapacitated")
	}
}

func TestImplicitTwinRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, pair := range randomTwinPairs(rng) {
		tw := pair.imp
		if tw.Name != pair.exp.Name || tw.Vertices() != pair.exp.Vertices() || tw.EdgeCount() != pair.exp.EdgeCount() {
			t.Fatalf("%s: twin mismatch: %s", pair.exp.Name, tw)
		}
		mat := pair.imp.Materialize()
		if mat.Name != pair.exp.Name || !reflect.DeepEqual(mat.Graph.Edges(), pair.exp.Graph.Edges()) {
			t.Fatalf("%s: Materialize diverges from the explicit constructor", pair.imp.Name)
		}
	}
}

func TestBuildImplicitMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	cases := []struct {
		f    Family
		dim  int
		size int
	}{
		{WeakHypercubeFamily, 0, 100},
		{WeakHypercubeFamily, 0, 1000},
		{MeshFamily, 2, 900},
		{MeshFamily, 3, 500},
		{TorusFamily, 2, 220},
	}
	for _, c := range cases {
		imp, err := BuildImplicit(c.f, c.dim, c.size)
		if err != nil {
			t.Fatal(err)
		}
		exp := Build(c.f, c.dim, c.size, rng)
		if imp.Name != exp.Name || imp.N() != exp.N() {
			t.Fatalf("BuildImplicit(%v, %d, %d) = %s, Build = %s", c.f, c.dim, c.size, imp.Name, exp.Name)
		}
	}
	if _, err := BuildImplicit(TreeFamily, 0, 64); err == nil {
		t.Fatal("BuildImplicit should reject families without a generator")
	}
}

// TestImplicitMillionVertexBuilds is the memory-scaling claim: a dim-20
// hypercube (1,048,576 vertices, 10.5M edges) and a 1024x1024 mesh build
// instantly because no edge list is materialized.
func TestImplicitMillionVertexBuilds(t *testing.T) {
	h := ImplicitWeakHypercube(20)
	if h.N() != 1<<20 || h.EdgeCount() != int64(1<<20)*20/2 {
		t.Fatalf("dim-20 hypercube: n=%d e=%d", h.N(), h.EdgeCount())
	}
	m := ImplicitMesh(2, 1024)
	if m.N() != 1024*1024 || m.EdgeCount() != int64(2*1024*1023) {
		t.Fatalf("1024x1024 mesh: n=%d e=%d", m.N(), m.EdgeCount())
	}
	if deg := implicitDegree(m.Implicit, 0); deg != 2 {
		t.Fatalf("mesh corner degree %d, want 2", deg)
	}
}
