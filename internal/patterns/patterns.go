// Package patterns treats algorithms as communication patterns — the
// extension the paper's conclusion sketches: "Algorithms are treated as
// collections of communication patterns that can be efficiently simulated
// by redundant circuits ... yielding lower bounds on the bandwidth of any
// communication pattern induced by any efficient redundant simulation of
// the algorithm on a host."
//
// A Pattern is the communication multigraph of a classic parallel
// algorithm (FFT, bitonic sort, parallel prefix, all-to-all). Lemma 8 then
// gives a lower bound on the time to execute the pattern 1-to-1 on a host:
// every message crosses wires, so host time is at least the best-case
// congestion of embedding the pattern — bounded below by flux and cut
// arguments. MeasureOn routes the pattern's messages for the measured
// counterpart.
package patterns

import (
	"fmt"
	"math/rand"

	"repro/internal/embed"
	"repro/internal/multigraph"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Pattern is an algorithm's communication demand.
type Pattern struct {
	Name string
	// Graph has one vertex per logical process and an edge per message
	// pair, weighted by how many messages cross it over the whole run.
	Graph *multigraph.Multigraph
	// Rounds is the algorithm's round count (its own parallel depth).
	Rounds int
}

// Endpoints returns the number of logical processes.
func (p Pattern) Endpoints() int { return p.Graph.N() }

// Messages returns the total message count E(C).
func (p Pattern) Messages() int64 { return p.Graph.E() }

func pow2OrPanic(what string, order, max int) int {
	if order < 1 || order > max {
		panic(fmt.Sprintf("patterns: %s order %d out of [1,%d]", what, order, max))
	}
	return 1 << order
}

// FFT returns the n = 2^order point FFT pattern: lg n rounds, in round l
// process i exchanges with i XOR 2^l — the full butterfly data flow,
// n lg n / 2 pair exchanges in total (weight 2 per pair for the two
// directions).
func FFT(order int) Pattern {
	n := pow2OrPanic("FFT", order, 24)
	g := multigraph.New(n)
	for l := 0; l < order; l++ {
		for i := 0; i < n; i++ {
			j := i ^ (1 << l)
			if i < j {
				g.AddEdge(i, j, 2)
			}
		}
	}
	return Pattern{Name: fmt.Sprintf("fft[%d]", n), Graph: g, Rounds: order}
}

// BitonicSort returns the n = 2^order bitonic sorting network pattern:
// lg n (lg n + 1)/2 compare-exchange rounds; in round (l, k) process i
// exchanges with i XOR 2^k.
func BitonicSort(order int) Pattern {
	n := pow2OrPanic("BitonicSort", order, 20)
	g := multigraph.New(n)
	rounds := 0
	for l := 0; l < order; l++ {
		for k := l; k >= 0; k-- {
			rounds++
			for i := 0; i < n; i++ {
				j := i ^ (1 << k)
				if i < j {
					g.AddEdge(i, j, 2)
				}
			}
		}
	}
	return Pattern{Name: fmt.Sprintf("bitonic[%d]", n), Graph: g, Rounds: rounds}
}

// ParallelPrefix returns the n = 2^order up/down-sweep prefix pattern over
// a conceptual binary tree laid on the processes: 2 lg n rounds; round l
// pairs process i (multiple of 2^{l+1}) with i + 2^l.
func ParallelPrefix(order int) Pattern {
	n := pow2OrPanic("ParallelPrefix", order, 24)
	g := multigraph.New(n)
	for l := 0; l < order; l++ {
		step := 1 << (l + 1)
		for i := 0; i+step/2 < n; i += step {
			g.AddEdge(i, i+step/2, 2) // up-sweep + down-sweep
		}
	}
	return Pattern{Name: fmt.Sprintf("prefix[%d]", n), Graph: g, Rounds: 2 * order}
}

// AllToAll returns the n-process personalized all-to-all (complete
// exchange): every ordered pair carries one message.
func AllToAll(n int) Pattern {
	if n < 2 {
		panic(fmt.Sprintf("patterns: AllToAll needs n >= 2, got %d", n))
	}
	g := multigraph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j, 2)
		}
	}
	return Pattern{Name: fmt.Sprintf("alltoall[%d]", n), Graph: g, Rounds: 1}
}

// HostBound returns the Lemma 8 lower bound on the host ticks needed to
// deliver the whole pattern under the given process-to-processor map
// (IdentityMap for same-size hosts): the larger of the flux bound
// (distance volume over wire count) and the best cut bound found. Any
// actual execution, however scheduled, needs at least this many ticks of
// pure communication.
func (p Pattern) HostBound(host *topology.Machine, vertexMap []int, rng *rand.Rand) float64 {
	lower, _ := embed.EstimateGCongestion(host.Graph, p.Graph, vertexMap, 1, rng)
	// Each wire moves one message per direction per tick, so congestion/2
	// is a valid tick bound; keep the conservative factor explicit.
	return lower / 2
}

// MeasureOn routes every message of the pattern on the host in one batch
// and returns the delivery time in ticks. Process i runs on
// vertexMap[i].
func (p Pattern) MeasureOn(host *topology.Machine, vertexMap []int, rng *rand.Rand) int {
	if len(vertexMap) != p.Endpoints() {
		panic(fmt.Sprintf("patterns: map covers %d of %d processes", len(vertexMap), p.Endpoints()))
	}
	var batch []traffic.Message
	for _, e := range p.Graph.Edges() {
		hu, hv := vertexMap[e.U], vertexMap[e.V]
		if hu == hv {
			continue
		}
		// Weight w covers both directions (w/2 each way).
		each := e.Mult / 2
		if each == 0 {
			each = 1
		}
		for k := int64(0); k < each; k++ {
			batch = append(batch, traffic.Message{Src: hu, Dst: hv}, traffic.Message{Src: hv, Dst: hu})
		}
	}
	if len(batch) == 0 {
		return 0
	}
	eng := routing.NewEngine(host, routing.Greedy)
	return eng.Route(batch, rng, 1).Ticks
}
