// Package program gives the emulation machinery something real to emulate:
// synchronous message-passing programs in the paper's machine model. Each
// step, every guest processor reads the words its neighbours sent, computes
// a new state, and sends its state out on all wires — the most general
// neighbour-exchange step, exactly what the redundant emulation model must
// support.
//
// A program can be run natively on its guest machine or under the direct
// contraction emulation on a host. An emulated run takes its final states
// from the native run and its host costs from emulation.Direct, which
// routes one message per cross-block guest wire direction each step: the
// words the step reads across blocks. That gives the measured-slowdown
// experiments a workload whose results can be checked (odd-even sort must
// come out sorted).
package program

import (
	"fmt"
	"math/rand"

	"repro/internal/emulation"
	"repro/internal/topology"
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
	buf := make([]Word, 0, 16)
	for s := 0; s < steps; s++ {
		for v := 0; v < n; v++ {
			buf = buf[:0]
			for _, u := range guest.Graph.Neighbors(v) {
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
// simulates a contraction block of guest processors. The states are Run's
// and the costs emulation.Direct's: per guest step the host spends
// block-size compute ticks and routes one message per cross-block guest
// wire direction, carrying the words the step reads across blocks. steps
// must be at least 1.
func RunEmulated(p Program, guest, host *topology.Machine, steps int, rng *rand.Rand) EmulatedResult {
	states := Run(p, guest, steps)
	er := emulation.Direct(guest, host, steps, nil, rng)
	return EmulatedResult{
		States:       states,
		HostTicks:    er.HostTicks,
		ComputeTicks: er.ComputeTicks,
		RouteTicks:   er.RouteTicks,
		Slowdown:     er.Slowdown,
	}
}
