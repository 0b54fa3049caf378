package emulation

import (
	"math/rand"
	"testing"

	"repro/internal/topology"
)

func TestDirectDegradedRemapsAndFinishes(t *testing.T) {
	guest := topology.Mesh(2, 8) // 64 processors
	host := topology.Mesh(2, 4)  // 16 processors
	rng := rand.New(rand.NewSource(61))
	res := DirectDegraded(guest, host, 8, 4, 3, rng)

	if res.FailStep != 4 || res.GuestSteps != 8 {
		t.Fatalf("phases %d/%d", res.FailStep, res.GuestSteps)
	}
	if len(res.DeadHosts) < 3 {
		t.Fatalf("dead hosts %v, want at least the 3 failed", res.DeadHosts)
	}
	if res.LiveHosts != host.N()-len(res.DeadHosts) {
		t.Fatalf("live %d + dead %d != %d", res.LiveHosts, len(res.DeadHosts), host.N())
	}
	// Every dead host's guests moved: 64/16 = 4 guests per host.
	if res.Remapped < 4*3 {
		t.Fatalf("remapped %d guests, want >= 12", res.Remapped)
	}
	if res.PreSlowdown <= 0 || res.PostSlowdown <= 0 {
		t.Fatalf("slowdowns %v/%v", res.PreSlowdown, res.PostSlowdown)
	}
	// Absorbing dead hosts' load onto survivors must cost slowdown: the
	// compute term alone grows from ceil(64/16) to at least ceil(64/13).
	if res.SlowdownPenalty <= 1 {
		t.Fatalf("penalty %v, want > 1 after losing 3 of 16 hosts", res.SlowdownPenalty)
	}
	// Whole-run slowdown averages the phases.
	lo, hi := res.PreSlowdown, res.PostSlowdown
	if lo > hi {
		lo, hi = hi, lo
	}
	if res.Slowdown < lo || res.Slowdown > hi {
		t.Fatalf("overall slowdown %v outside [%v, %v]", res.Slowdown, lo, hi)
	}
	// The load bound still holds for the whole run.
	if res.Slowdown < res.LoadBound {
		t.Fatalf("slowdown %v beat the load bound %v", res.Slowdown, res.LoadBound)
	}
	// Both phases run sequential steps: compute and route ticks add up.
	if res.HostTicks != res.ComputeTicks+res.RouteTicks {
		t.Fatalf("host ticks %d != compute %d + route %d", res.HostTicks, res.ComputeTicks, res.RouteTicks)
	}
}

func TestDirectDegradedAssignsOnlyLiveHosts(t *testing.T) {
	guest := topology.Mesh(2, 8)
	host := topology.Torus(2, 4)
	rng := rand.New(rand.NewSource(62))
	res := DirectDegraded(guest, host, 6, 2, 5, rng)
	dead := make(map[int]bool)
	for _, v := range res.DeadHosts {
		dead[v] = true
	}
	// DeadHosts is sorted and within range.
	for i, v := range res.DeadHosts {
		if v < 0 || v >= host.N() {
			t.Fatalf("dead host %d out of range", v)
		}
		if i > 0 && res.DeadHosts[i-1] >= v {
			t.Fatalf("dead hosts not sorted: %v", res.DeadHosts)
		}
	}
	if res.Remapped == 0 {
		t.Fatal("no guests remapped despite 5 dead hosts")
	}
}

func TestDirectDegradedBadArgsPanic(t *testing.T) {
	guest := topology.Mesh(2, 4)
	host := topology.Mesh(2, 2)
	rng := rand.New(rand.NewSource(63))
	for _, tc := range []struct{ steps, failStep int }{
		{1, 0}, // too short to hold two phases
		{4, 0}, // failure before the run starts
		{4, 4}, // failure after the run ends
		{4, 7}, // failure past the end
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("steps=%d failStep=%d did not panic", tc.steps, tc.failStep)
				}
			}()
			DirectDegraded(guest, host, tc.steps, tc.failStep, 1, rng)
		}()
	}
}

// The degraded emulation and the static survivor machinery agree on who is
// alive: every guest ends up on a host inside the largest live component.
func TestDirectDegradedRespectsComponents(t *testing.T) {
	guest := topology.Mesh(2, 6)
	host := topology.LinearArray(8) // any interior failure cuts the array
	rng := rand.New(rand.NewSource(64))
	res := DirectDegraded(guest, host, 6, 3, 2, rng)
	// On a linear array, 2 failures can strand up to a whole segment;
	// whatever survived must be one contiguous live block.
	if res.LiveHosts+len(res.DeadHosts) != host.N() {
		t.Fatalf("live %d + dead %d != %d", res.LiveHosts, len(res.DeadHosts), host.N())
	}
	dead := make(map[int]bool)
	for _, v := range res.DeadHosts {
		dead[v] = true
	}
	// The live set is contiguous on an array: between any two live hosts
	// there is no dead one... only when the cut-off segments were marked
	// dead. Check exactly that: live hosts form one interval.
	first, last, liveSeen := -1, -1, 0
	for v := 0; v < host.N(); v++ {
		if !dead[v] {
			if first < 0 {
				first = v
			}
			last = v
			liveSeen++
		}
	}
	if liveSeen != last-first+1 {
		t.Fatalf("live hosts not contiguous: dead=%v", res.DeadHosts)
	}
}
