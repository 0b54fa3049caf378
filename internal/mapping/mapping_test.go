package mapping

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/emulation"
	"repro/internal/topology"
)

// randomMap assigns guest processors to host processors in random
// balanced fashion — the locality-free baseline.
func randomMap(guest, host *topology.Machine, rng *rand.Rand) []int {
	n, m := guest.N(), host.N()
	assign := make([]int, n)
	for rank, v := range rng.Perm(n) {
		assign[v] = rank * m / n
	}
	return assign
}

func loads(assign []int, hostN int) []int {
	out := make([]int, hostN)
	for _, p := range assign {
		out[p]++
	}
	return out
}

func TestRecursiveBisectionBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	guest := topology.Mesh(2, 8) // 64
	host := topology.Ring(8)
	assign := RecursiveBisection(guest, host, rng)
	if len(assign) != 64 {
		t.Fatalf("assignment covers %d", len(assign))
	}
	for p, l := range loads(assign, 8) {
		if l < 6 || l > 10 {
			t.Fatalf("host %d has load %d, want ~8", p, l)
		}
	}
}

func TestRecursiveBisectionSingleHost(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	guest := topology.Ring(12)
	host := topology.LinearArray(1)
	assign := RecursiveBisection(guest, host, rng)
	for _, p := range assign {
		if p != 0 {
			t.Fatal("everything must map to the only host")
		}
	}
}

func TestRecursiveBisectionPreservesLocality(t *testing.T) {
	// Mapping a mesh onto a mesh: the cut-based map should produce far
	// fewer cross-host guest edges than a random balanced map.
	rng := rand.New(rand.NewSource(3))
	guest := topology.Mesh(2, 8)
	host := topology.Mesh(2, 4)
	assign := RecursiveBisection(guest, host, rng)
	random := randomMap(guest, host, rng)
	cross := func(a []int) int {
		c := 0
		for _, e := range guest.Graph.Edges() {
			if a[e.U] != a[e.V] {
				c++
			}
		}
		return c
	}
	rb, rd := cross(assign), cross(random)
	if rb >= rd {
		t.Fatalf("recursive bisection cross edges %d >= random %d", rb, rd)
	}
	// A good map keeps cross edges within a small factor of the ideal
	// (ideal for 2x2 blocks is 48 of 112 edges).
	if rb > 90 {
		t.Fatalf("cross edges %d too high", rb)
	}
}

func TestRecursiveBisectionBeatsRandomOnIrregularPair(t *testing.T) {
	// The pairs with no coordinate structure are where the mapper earns
	// its keep: de Bruijn guest onto a tree host.
	rng := rand.New(rand.NewSource(4))
	guest := topology.DeBruijn(6)
	host := topology.Tree(3)
	assign := RecursiveBisection(guest, host, rng)
	res := emulation.Direct(guest, host, 2, assign, rng)
	random := emulation.Direct(guest, host, 2, randomMap(guest, host, rng), rng)
	if res.RouteTicks > random.RouteTicks {
		t.Fatalf("mapped %d route ticks > random %d", res.RouteTicks, random.RouteTicks)
	}
}

func TestRejectsSwitchGuests(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	RecursiveBisection(topology.GlobalBus(8), topology.Ring(4), rng)
}

// Property: the assignment is always complete, in range, and near balanced.
func TestPropertyAssignmentsValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		guest := topology.Ring(16 + rng.Intn(32))
		host := topology.Ring(3 + rng.Intn(5))
		assign := RecursiveBisection(guest, host, rng)
		if len(assign) != guest.N() {
			return false
		}
		counts := loads(assign, host.N())
		min, max := guest.N(), 0
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		// Sizes are forced proportionally at every split; allow slack 2x.
		return max <= 2*(guest.N()/host.N()+1) && min >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRecursiveBisection maps the cold-measurement benchmark's
// DeBruijn-256 guest onto its Mesh-64 host, with a fresh seed per op as
// each of its requests has. Run with -benchmem: the refiner and the
// induced subgraphs are the allocations it counts.
func BenchmarkRecursiveBisection(b *testing.B) {
	guest := topology.DeBruijn(8)
	host := topology.Mesh(2, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RecursiveBisection(guest, host, rand.New(rand.NewSource(int64(i))))
	}
}
