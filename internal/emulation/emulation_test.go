package emulation

import (
	"math/rand"
	"testing"
	"testing/quick"

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

func TestContractionMapBalanced(t *testing.T) {
	guest := topology.Mesh(2, 8) // 64
	host := topology.Mesh(2, 4)  // 16
	assign := ContractionMap(guest, host)
	loads := blockLoads(assign, host.N())
	for p, l := range loads {
		if l != 4 {
			t.Fatalf("host %d simulates %d guests, want 4", p, l)
		}
	}
}

func TestRandomMapBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	guest := topology.Ring(30)
	host := topology.Ring(7)
	assign := randomMap(guest, host, rng)
	loads := blockLoads(assign, host.N())
	if got := maxLoad(loads); got > 5 {
		t.Fatalf("max load %d, want <= ceil(30/7) = 5", got)
	}
}

func TestDirectIdentityEmulation(t *testing.T) {
	// Same machine, same size: slowdown should be a small constant (the
	// per-step neighbour exchange plus one compute tick).
	rng := rand.New(rand.NewSource(2))
	guest := topology.Mesh(2, 4)
	host := topology.Mesh(2, 4)
	res := Direct(guest, host, 4, nil, rng)
	if res.LoadBound != 1 {
		t.Fatalf("load bound = %v", res.LoadBound)
	}
	if res.Slowdown < 1 || res.Slowdown > 12 {
		t.Fatalf("identity-emulation slowdown = %.1f, want small constant", res.Slowdown)
	}
	if res.Inefficiency != 1.0 {
		t.Fatalf("inefficiency = %v", res.Inefficiency)
	}
	if res.HostTicks != res.ComputeTicks+res.RouteTicks {
		t.Fatal("tick split inconsistent")
	}
}

func TestDirectSlowdownAtLeastLoad(t *testing.T) {
	// Emulating 64 guests on 4 hosts: slowdown >= 16 just from load.
	rng := rand.New(rand.NewSource(3))
	guest := topology.Mesh(2, 8)
	host := topology.Mesh(2, 2)
	res := Direct(guest, host, 3, nil, rng)
	if res.Slowdown < res.LoadBound {
		t.Fatalf("slowdown %.1f below load bound %.1f", res.Slowdown, res.LoadBound)
	}
}

// The paper's headline: emulating a bandwidth-rich guest (de Bruijn) on a
// bandwidth-poor host (2-d mesh) of the SAME size costs a slowdown far
// above constant — the bandwidth ratio β(G)/β(H) = Θ(√n / lg n).
func TestDirectBandwidthPenaltyDeBruijnOnMesh(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	guest := topology.DeBruijn(6) // 64
	host := topology.Mesh(2, 8)   // 64
	res := Direct(guest, host, 3, nil, rng)
	if res.LoadBound != 1 {
		t.Fatalf("load bound %v", res.LoadBound)
	}
	// β(G)/β(H) = (64/6)/(8) ≈ 1.3 at this size — small, but the emulation
	// must at least pay a constant well above the identity case. Compare
	// directly against mesh-on-mesh.
	self := Direct(topology.Mesh(2, 8), host, 3, nil, rng)
	if res.Slowdown <= self.Slowdown {
		t.Fatalf("de Bruijn on mesh (%.1f) should be slower than mesh on mesh (%.1f)",
			res.Slowdown, self.Slowdown)
	}
}

func TestDirectBadAssignmentPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Direct(topology.Ring(8), topology.Ring(4), 2, []int{0, 1}, rng)
}

func TestDirectZeroStepsPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Direct(topology.Ring(8), topology.Ring(4), 0, nil, rng)
}

func TestCircuitEmulationNonRedundant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	guest := topology.Ring(16)
	host := topology.Ring(4)
	res := Circuit(guest, host, 4, 1, rng)
	if res.Inefficiency != 1.0 {
		t.Fatalf("inefficiency = %v, want 1.0", res.Inefficiency)
	}
	if res.Slowdown < res.LoadBound {
		t.Fatalf("slowdown %.1f below load bound %.1f", res.Slowdown, res.LoadBound)
	}
}

func TestCircuitEmulationRedundant(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	guest := topology.Ring(12)
	host := topology.Ring(4)
	res := Circuit(guest, host, 4, 2, rng)
	if res.Inefficiency < 1.9 || res.Inefficiency > 2.1 {
		t.Fatalf("inefficiency = %v, want ~2 (duplicity 2)", res.Inefficiency)
	}
	if res.HostTicks <= 0 {
		t.Fatal("no host ticks")
	}
}

func TestCircuitRejectsSwitchGuests(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Circuit(topology.GlobalBus(8), topology.Ring(4), 2, 1, rng)
}

func TestDirectOntoBusHost(t *testing.T) {
	// A global bus host serializes everything: emulating a ring of 16 on a
	// 16-processor bus pays the wire count every step.
	rng := rand.New(rand.NewSource(10))
	guest := topology.Ring(16)
	host := topology.GlobalBus(16)
	res := Direct(guest, host, 2, nil, rng)
	// 32 messages per step through a rate-1 hub: slowdown >= ~32.
	if res.Slowdown < 20 {
		t.Fatalf("bus-host slowdown %.1f, want >= ~32", res.Slowdown)
	}
}

func TestLocalityBeatsRandomMap(t *testing.T) {
	// Contraction of a big mesh onto a small mesh with BFS blocks should
	// route much less traffic than a random assignment.
	rng := rand.New(rand.NewSource(11))
	guest := topology.Mesh(2, 8)
	host := topology.Mesh(2, 4)
	local := Direct(guest, host, 2, ContractionMap(guest, host), rng)
	random := Direct(guest, host, 2, randomMap(guest, host, rng), rng)
	if local.RouteTicks >= random.RouteTicks {
		t.Fatalf("local routing %d ticks, random %d: locality should win",
			local.RouteTicks, random.RouteTicks)
	}
}

// Property: slowdown always respects the load-induced lower bound and the
// tick split is consistent.
func TestPropertySlowdownAboveLoad(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		guest := topology.Ring(8 + 4*rng.Intn(6))
		host := topology.Ring(3 + rng.Intn(4))
		steps := 1 + rng.Intn(3)
		res := Direct(guest, host, steps, nil, rng)
		if res.HostTicks != res.ComputeTicks+res.RouteTicks {
			return false
		}
		// Compute alone contributes ceil(n/m) per step.
		return res.Slowdown >= res.LoadBound-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the circuit emulator and direct emulator agree within a
// constant factor for non-redundant emulations (they simulate the same
// work and traffic).
func TestPropertyCircuitTracksDirect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		guest := topology.Mesh(2, 4)
		host := topology.Ring(4 + rng.Intn(4))
		steps := 2 + rng.Intn(2)
		d := Direct(guest, host, steps, nil, rng)
		c := Circuit(guest, host, steps, 1, rng)
		ratio := c.Slowdown / d.Slowdown
		return ratio > 0.2 && ratio < 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectPipelinedNeverSlower(t *testing.T) {
	guest := topology.DeBruijn(6)
	host := topology.Mesh(2, 4)
	seq := Direct(guest, host, 3, nil, rand.New(rand.NewSource(21)))
	pipe := DirectPipelined(guest, host, 3, nil, rand.New(rand.NewSource(21)))
	// Every step both computes (4 guests per host) and routes, so
	// overlapping the two must save ticks.
	if pipe.HostTicks >= seq.HostTicks {
		t.Fatalf("pipelined %d ticks, want fewer than sequential %d", pipe.HostTicks, seq.HostTicks)
	}
	// Each step still costs at least the dominant component.
	if pipe.HostTicks < seq.ComputeTicks && pipe.HostTicks < seq.RouteTicks {
		t.Fatalf("pipelined %d below both components (%d compute, %d route)",
			pipe.HostTicks, seq.ComputeTicks, seq.RouteTicks)
	}
	if pipe.Slowdown < pipe.LoadBound {
		t.Fatalf("pipelined slowdown %.1f below load bound %.1f", pipe.Slowdown, pipe.LoadBound)
	}
}
