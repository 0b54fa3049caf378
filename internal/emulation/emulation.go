// Package emulation executes emulations of a guest network machine on a
// host machine and measures the achieved slowdown — the quantity the
// paper's Efficient Emulation Theorem lower-bounds.
//
// Two emulators are provided:
//
//   - Direct: the classic contraction emulation. Guest processors are
//     partitioned into |H| blocks; each host processor simulates one block.
//     Every guest step, each host processor spends one tick per simulated
//     guest processor (the load), and all guest wires that cross blocks
//     become messages routed on the host.
//
//   - Circuit: the redundant-model emulation. A circuit for T guest steps
//     is built (internal/circuit), its nodes are assigned to host
//     processors, and the levels are executed in order; arcs crossing
//     processors are routed level by level.
//
// Measured slowdown is host ticks divided by guest steps. The theorem says
// no efficient emulation can beat Ω(max(|G|/|H|, β(G)/β(H))); the tests and
// benches verify the measured values respect (and track) that bound.
package emulation

import (
	"fmt"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Result reports one measured emulation.
type Result struct {
	Guest, Host *topology.Machine
	GuestSteps  int
	HostTicks   int
	// ComputeTicks and RouteTicks split the work into simulation and
	// communication. For sequential (Direct) runs they sum to HostTicks;
	// for pipelined runs each step costs the max of the two, so HostTicks
	// is smaller than the sum.
	ComputeTicks, RouteTicks int
	// Slowdown = HostTicks / GuestSteps.
	Slowdown float64
	// Inefficiency is the work ratio: host operations (guest-node
	// simulations) per guest operation. 1.0 for non-redundant emulations.
	Inefficiency float64
	// LoadBound = |G|/|H|, the size-induced lower bound on slowdown.
	LoadBound float64
}

// ContractionMap partitions the guest's processors into |host| blocks of
// nearly equal size, ordered by a BFS sweep of the guest so blocks stay
// local, and lays consecutive blocks onto consecutive host processors in
// the host's own BFS order, so neighbouring blocks tend to land on nearby
// host processors. Entry i is the host processor simulating guest
// processor i.
func ContractionMap(guest, host *topology.Machine) []int {
	n, m := guest.N(), host.N()
	if m < 1 {
		panic("emulation: empty host")
	}
	if a := meshContraction(guest, host); a != nil {
		return a
	}
	order := bfsOrder(guest)
	hostOrder := bfsOrder(host)
	assign := make([]int, n)
	for rank, v := range order {
		assign[v] = hostOrder[rank*m/n]
	}
	return assign
}

// meshContraction maps mesh-like guests onto mesh-like hosts of the same
// dimension by coordinate scaling (each host cell simulates an aligned
// subgrid), which both minimizes cross traffic and spreads it over every
// host wire. Returns nil when the pair doesn't qualify.
func meshContraction(guest, host *topology.Machine) []int {
	meshy := func(f topology.Family) bool {
		return f == topology.MeshFamily || f == topology.TorusFamily || f == topology.XGridFamily
	}
	if !meshy(guest.Family) || !meshy(host.Family) || guest.Dim != host.Dim || guest.Dim < 1 {
		return nil
	}
	if guest.Side < host.Side {
		return nil // expansion, not contraction; fall back to BFS blocks
	}
	// Trust the coordinate metadata only if it actually describes the
	// machines: a degraded survivor can carry a stale Side/Dim claiming
	// Side^Dim processors it no longer has, and decoding coordinates from
	// that lie would assign guest work to nonexistent host processors.
	if sidePow(guest.Side, guest.Dim) != guest.N() || sidePow(host.Side, host.Dim) != host.N() {
		return nil
	}
	dim := guest.Dim
	assign := make([]int, guest.N())
	for v := range assign {
		// Decode guest coordinates, scale each into the host's side.
		id := v
		hid := 0
		stride := 1
		for d := 0; d < dim; d++ {
			c := id % guest.Side
			id /= guest.Side
			hc := c * host.Side / guest.Side
			hid += hc * stride
			stride *= host.Side
		}
		assign[v] = hid
	}
	return assign
}

// sidePow returns side^dim without floating point.
func sidePow(side, dim int) int {
	out := 1
	for i := 0; i < dim; i++ {
		out *= side
	}
	return out
}

// bfsOrder returns the guest's processor ids in BFS order from processor 0
// (switch vertices are excluded).
func bfsOrder(guest *topology.Machine) []int {
	dist := guest.Graph.BFS(0)
	order := make([]int, 0, guest.N())
	// Counting sort by distance keeps the sweep O(n + diameter).
	maxD := 0
	for v := 0; v < guest.N(); v++ {
		if dist[v] > maxD {
			maxD = dist[v]
		}
	}
	buckets := make([][]int, maxD+1)
	for v := 0; v < guest.N(); v++ {
		if dist[v] < 0 {
			panic(fmt.Sprintf("emulation: guest processor %d unreachable", v))
		}
		buckets[dist[v]] = append(buckets[dist[v]], v)
	}
	for _, b := range buckets {
		order = append(order, b...)
	}
	return order
}

// blockLoads returns how many guest processors each host processor
// simulates.
func blockLoads(assign []int, hostN int) []int {
	loads := make([]int, hostN)
	for _, p := range assign {
		loads[p]++
	}
	return loads
}

// maxLoad returns the largest block.
func maxLoad(loads []int) int {
	worst := 0
	for _, l := range loads {
		if l > worst {
			worst = l
		}
	}
	return worst
}

// Direct runs the contraction emulation of `steps` guest steps under the
// given assignment (nil for the default ContractionMap) and returns the
// measured result. Every guest step, each guest wire carries one message in
// each direction (the most general neighbour-exchange step the redundant
// model must support). Compute and communication are sequential per step;
// DirectPipelined overlaps them.
func Direct(guest, host *topology.Machine, steps int, assign []int, rng *rand.Rand) Result {
	return direct(guest, host, steps, assign, false, rng)
}

// DirectPipelined is Direct with compute/communication overlap: each step
// costs max(compute, route) host ticks instead of their sum, modelling a
// host that exchanges boundary words while it simulates interior ones.
func DirectPipelined(guest, host *topology.Machine, steps int, assign []int, rng *rand.Rand) Result {
	return direct(guest, host, steps, assign, true, rng)
}

func direct(guest, host *topology.Machine, steps int, assign []int, pipelined bool, rng *rand.Rand) Result {
	if steps < 1 {
		panic(fmt.Sprintf("emulation: steps %d < 1", steps))
	}
	if assign == nil {
		assign = ContractionMap(guest, host)
	}
	if len(assign) != guest.N() {
		panic(fmt.Sprintf("emulation: assignment covers %d of %d guest processors", len(assign), guest.N()))
	}
	res := Result{
		Guest: guest, Host: host, GuestSteps: steps,
		Inefficiency: 1.0,
		LoadBound:    float64(guest.N()) / float64(host.N()),
	}
	compute := maxLoad(blockLoads(assign, host.N()))
	res.HostTicks, res.ComputeTicks, res.RouteTicks = runSteps(host, crossTemplate(guest, assign), compute, steps, pipelined, rng)
	res.Slowdown = float64(res.HostTicks) / float64(steps)
	return res
}

// runSteps runs `steps` guest steps of a contraction emulation on host:
// each step spends compute ticks simulating the largest block and routes
// one copy of the cross-block template. A sequential step costs the sum
// of the two; a pipelined one overlaps them and costs their max.
func runSteps(host *topology.Machine, template []traffic.Message, compute, steps int, pipelined bool, rng *rand.Rand) (ticks, computeTicks, routeTicks int) {
	eng := routing.NewEngine(host, routing.Greedy)
	for s := 0; s < steps; s++ {
		route := 0
		if len(template) > 0 {
			batch := make([]traffic.Message, len(template))
			copy(batch, template)
			route = eng.Route(batch, rng, 1).Ticks
		}
		computeTicks += compute
		routeTicks += route
		if pipelined {
			ticks += max(compute, route)
		} else {
			ticks += compute + route
		}
	}
	return ticks, computeTicks, routeTicks
}

// Circuit runs the redundant-model emulation: build a circuit for `steps`
// guest steps with the given duplicity (1 = non-redundant), assign all
// copies of guest vertex u alongside u's contraction block, and execute
// level by level, routing each level's cross-processor arcs.
func Circuit(guest, host *topology.Machine, steps, duplicity int, rng *rand.Rand) Result {
	if steps < 1 {
		panic(fmt.Sprintf("emulation: steps %d < 1", steps))
	}
	if guest.N() != guest.Graph.N() {
		panic(fmt.Sprintf("emulation: guest %s has switch vertices; only pure processor machines can be emulated", guest.Name))
	}
	var c *circuit.Circuit
	if duplicity <= 1 {
		c = circuit.NonRedundant(guest.Graph, steps)
		duplicity = 1
	} else {
		c = circuit.Redundant(guest.Graph, steps, duplicity, rng)
	}
	assign := ContractionMap(guest, host)
	eng := routing.NewEngine(host, routing.Greedy)

	res := Result{
		Guest: guest, Host: host, GuestSteps: steps,
		Inefficiency: float64(c.NodeCount()) / (float64(guest.N()) * float64(steps+1)),
		LoadBound:    float64(guest.N()) / float64(host.N()),
	}
	// Per level: simulate every circuit node of the level (compute), then
	// route the arcs into the next level that cross host processors.
	for i := 0; i <= c.Steps; i++ {
		levelLoads := make([]int, host.N())
		for _, node := range c.Level(i) {
			levelLoads[assign[node.Vertex]]++
		}
		res.ComputeTicks += maxLoad(levelLoads)
		if i == c.Steps {
			break
		}
		var batch []traffic.Message
		for _, a := range c.ArcsFrom(i) {
			hu, hv := assign[a.From.Vertex], assign[a.To.Vertex]
			if hu != hv {
				batch = append(batch, traffic.Message{Src: hu, Dst: hv})
			}
		}
		if len(batch) > 0 {
			st := eng.Route(batch, rng, 1)
			res.RouteTicks += st.Ticks
		}
	}
	res.HostTicks = res.ComputeTicks + res.RouteTicks
	res.Slowdown = float64(res.HostTicks) / float64(steps)
	return res
}
