// Package program gives the emulation machinery something real to emulate:
// synchronous message-passing programs in the paper's machine model. Each
// step, every guest processor reads the words its neighbours sent, computes
// a new state, and sends its state out on all wires — the most general
// neighbour-exchange step, exactly what the redundant emulation model must
// support.
//
// A program can be run natively on its guest machine or under the direct
// contraction emulation on a host. The emulated run applies identical
// semantics (so final states must match the native run bit for bit) while
// paying the host's communication costs through the routing engine — which
// is how the measured-slowdown experiments get a workload with a
// correctness oracle.
package program

import (
	"fmt"
	"math/rand"

	"repro/internal/emulation"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Word is a processor state.
type Word int64

// Program defines per-processor initialization and the step function.
type Program interface {
	// Name identifies the program in reports.
	Name() string
	// Init returns processor v's initial state.
	Init(v int) Word
	// Step computes v's next state from its current state and the states
	// its neighbours held last step, given in ascending neighbour order.
	// round counts from 0. It must be deterministic.
	Step(round, v int, own Word, neighbors []Word) Word
}

// Run executes p natively on guest for the given number of steps and
// returns the final states. Only processor vertices run code; switch
// vertices (bus hubs, PPN combiners) relay but hold no state, so guests
// must be pure processor machines.
func Run(p Program, guest *topology.Machine, steps int) []Word {
	if guest.N() != guest.Graph.N() {
		panic(fmt.Sprintf("program: guest %s has switch vertices", guest.Name))
	}
	if steps < 0 {
		panic("program: negative steps")
	}
	n := guest.N()
	cur := make([]Word, n)
	for v := 0; v < n; v++ {
		cur[v] = p.Init(v)
	}
	next := make([]Word, n)
	nbrs := make([][]int, n)
	for v := 0; v < n; v++ {
		nbrs[v] = guest.Graph.Neighbors(v)
	}
	buf := make([]Word, 0, 16)
	for s := 0; s < steps; s++ {
		for v := 0; v < n; v++ {
			buf = buf[:0]
			for _, u := range nbrs[v] {
				buf = append(buf, cur[u])
			}
			next[v] = p.Step(s, v, cur[v], buf)
		}
		cur, next = next, cur
	}
	return cur
}

// EmulatedResult reports an emulated program run.
type EmulatedResult struct {
	States []Word
	// HostTicks totals compute (block size per step) plus routing time for
	// the cross-block exchanges.
	HostTicks    int
	ComputeTicks int
	RouteTicks   int
	Slowdown     float64
}

// RunEmulated executes p on host emulating guest: each host processor
// simulates a contraction block of guest processors. Per guest step the
// host (a) spends block-size compute ticks, (b) routes one message per
// cross-block guest wire direction through the routing engine, and (c)
// applies the exact step semantics. The returned states must equal Run's.
func RunEmulated(p Program, guest, host *topology.Machine, steps int, rng *rand.Rand) EmulatedResult {
	if guest.N() != guest.Graph.N() {
		panic(fmt.Sprintf("program: guest %s has switch vertices", guest.Name))
	}
	assign := emulation.ContractionMap(guest, host)
	eng := routing.NewEngine(host, routing.Greedy)

	n := guest.N()
	cur := make([]Word, n)
	for v := 0; v < n; v++ {
		cur[v] = p.Init(v)
	}
	next := make([]Word, n)
	nbrs := make([][]int, n)
	for v := 0; v < n; v++ {
		nbrs[v] = guest.Graph.Neighbors(v)
	}
	// The per-step message batch is fixed: both directions of every
	// cross-block guest wire.
	var template []traffic.Message
	for _, e := range guest.Graph.Edges() {
		hu, hv := assign[e.U], assign[e.V]
		if hu == hv {
			continue
		}
		for k := int64(0); k < e.Mult; k++ {
			template = append(template, traffic.Message{Src: hu, Dst: hv}, traffic.Message{Src: hv, Dst: hu})
		}
	}
	loads := make([]int, host.N())
	for _, hp := range assign {
		loads[hp]++
	}
	compute := 0
	for _, l := range loads {
		if l > compute {
			compute = l
		}
	}

	res := EmulatedResult{}
	buf := make([]Word, 0, 16)
	for s := 0; s < steps; s++ {
		res.ComputeTicks += compute
		if len(template) > 0 {
			batch := make([]traffic.Message, len(template))
			copy(batch, template)
			res.RouteTicks += eng.Route(batch, rng, 1).Ticks
		}
		// Semantics: identical to the native step. (The messages above
		// paid for delivering exactly the cross-block words used here;
		// intra-block words are free local memory.)
		for v := 0; v < n; v++ {
			buf = buf[:0]
			for _, u := range nbrs[v] {
				buf = append(buf, cur[u])
			}
			next[v] = p.Step(s, v, cur[v], buf)
		}
		cur, next = next, cur
	}
	res.States = cur
	res.HostTicks = res.ComputeTicks + res.RouteTicks
	if steps > 0 {
		res.Slowdown = float64(res.HostTicks) / float64(steps)
	}
	return res
}
