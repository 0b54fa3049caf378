package emulation

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/topology"
	"repro/internal/traffic"
)

// Graceful degradation: an emulation that survives host-processor failures
// mid-run. When a host processor dies, the guest processors it simulated
// are remapped onto the nearest surviving host (nearest in the original
// host graph, so locality degrades as little as possible) and the emulation
// continues on the degraded machine. The cost shows up as a slowdown
// penalty — bigger blocks on the survivors plus longer routes — which is
// exactly the quantity the resilience experiments compare across hosts.

// DegradedResult reports an emulation that lost host processors mid-run.
type DegradedResult struct {
	Result // whole-run totals; Slowdown averages the intact and degraded phases

	FailStep  int   // guest step at which the hosts died
	DeadHosts []int // failed host processors, including survivors cut off from the main component
	LiveHosts int   // host processors still doing work after the failure
	Remapped  int   // guest processors moved to a new host

	PreSlowdown  float64 // host ticks per guest step before the failure
	PostSlowdown float64 // after the failure, on the degraded machine
	// SlowdownPenalty = PostSlowdown / PreSlowdown: how much each guest
	// step slowed once the dead hosts' load was absorbed.
	SlowdownPenalty float64
}

// crossTemplate builds the per-step message batch of a contraction
// emulation: both directions of every guest wire whose endpoints live on
// different host processors.
func crossTemplate(guest *topology.Machine, assign []int) []traffic.Message {
	var template []traffic.Message
	for _, e := range guest.Graph.Edges() {
		if e.U >= guest.N() || e.V >= guest.N() {
			continue // switch vertices don't run guest code
		}
		hu, hv := assign[e.U], assign[e.V]
		if hu == hv {
			continue
		}
		for k := int64(0); k < e.Mult; k++ {
			template = append(template, traffic.Message{Src: hu, Dst: hv}, traffic.Message{Src: hv, Dst: hu})
		}
	}
	return template
}

// DirectDegraded runs the contraction emulation of `steps` guest steps,
// killing failCount random host processors after failStep steps. The dead
// hosts' guests are remapped to the nearest live host (ties to the smallest
// id) and the remaining steps run on the degraded host. Survivors cut off
// from the largest live component are treated as dead too — an unreachable
// processor can't take part in the emulation even though it still computes.
func DirectDegraded(guest, host *topology.Machine, steps, failStep, failCount int, rng *rand.Rand) DegradedResult {
	if steps < 2 || failStep < 1 || failStep >= steps {
		panic(fmt.Sprintf("emulation: fail step %d must lie strictly inside the %d-step run", failStep, steps))
	}
	assign := ContractionMap(guest, host)
	compute := maxLoad(blockLoads(assign, host.N()))
	template := crossTemplate(guest, assign)

	out := DegradedResult{
		Result: Result{
			Guest: guest, Host: host, GuestSteps: steps,
			Inefficiency: 1.0,
			LoadBound:    float64(guest.N()) / float64(host.N()),
		},
		FailStep: failStep,
	}

	// Phase 1: intact.
	preTicks, c1, r1 := runSteps(host, template, compute, failStep, false, rng)
	out.ComputeTicks += c1
	out.RouteTicks += r1
	out.PreSlowdown = float64(preTicks) / float64(failStep)

	// The failure: failCount processors die, and anything the partition cut
	// off from the largest live component is effectively dead as well.
	degHost, failed := topology.DeleteRandomProcessors(host, failCount, rng)
	dead := extendToMainComponent(degHost, failed)
	out.DeadHosts = sortedKeys(dead)
	out.LiveHosts = host.N() - len(dead)
	if out.LiveHosts < 1 {
		panic(fmt.Sprintf("emulation: failing %d hosts of %s left no live component", failCount, host.Name))
	}

	// Remap every guest of a dead host to the nearest live host, measured
	// on the original (intact) host graph so the new owner is the closest
	// surviving neighbour of the old one.
	distCache := make(map[int][]int)
	for g, h := range assign {
		if !dead[h] {
			continue
		}
		d, ok := distCache[h]
		if !ok {
			d = host.Graph.BFS(h)
			distCache[h] = d
		}
		best, bestDist := -1, -1
		for v := 0; v < host.N(); v++ {
			if dead[v] || d[v] < 0 {
				continue
			}
			if best < 0 || d[v] < bestDist {
				best, bestDist = v, d[v]
			}
		}
		if best < 0 {
			panic(fmt.Sprintf("emulation: no live host reachable from dead host %d", h))
		}
		assign[g] = best
		out.Remapped++
	}

	// Phase 2: degraded. Bigger blocks, fewer wires, rebuilt routes.
	compute2 := maxLoad(blockLoads(assign, degHost.N()))
	template2 := crossTemplate(guest, assign)
	postSteps := steps - failStep
	postTicks, c2, r2 := runSteps(degHost, template2, compute2, postSteps, false, rng)
	out.ComputeTicks += c2
	out.RouteTicks += r2
	out.PostSlowdown = float64(postTicks) / float64(postSteps)

	out.HostTicks = preTicks + postTicks
	out.Slowdown = float64(out.HostTicks) / float64(steps)
	if out.PreSlowdown > 0 {
		out.SlowdownPenalty = out.PostSlowdown / out.PreSlowdown
	}
	return out
}

// extendToMainComponent returns the failed set extended with every live
// processor outside the largest live component of the degraded host.
func extendToMainComponent(degHost *topology.Machine, failed map[int]bool) map[int]bool {
	main, _ := topology.LargestLiveComponent(degHost, failed)
	inMain := make(map[int]bool, len(main))
	for _, v := range main {
		inMain[v] = true
	}
	dead := make(map[int]bool, len(failed))
	for v := range failed {
		dead[v] = true
	}
	for v := 0; v < degHost.N(); v++ {
		if !failed[v] && !inMain[v] {
			dead[v] = true
		}
	}
	return dead
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
