package program

import "fmt"

// A small library of programs with checkable global behaviour.

// FloodMax: every processor starts with a distinct value (a fixed
// injective seed, v*2654435761+12345 mod 2^31) and repeatedly takes the
// maximum of itself and its neighbours. After diameter steps every
// processor holds the global maximum — the classic leader-election flood,
// and a sharp test that information really crosses the network.
type FloodMax struct{}

// Name implements Program.
func (f *FloodMax) Name() string { return "floodmax" }

// Init implements Program.
func (f *FloodMax) Init(v int) Word {
	return Word((int64(v)*2654435761 + 12345) % (1 << 31))
}

// Step implements Program.
func (f *FloodMax) Step(_, _ int, own Word, neighbors []Word) Word {
	max := own
	for _, w := range neighbors {
		if w > max {
			max = w
		}
	}
	return max
}

// SumDiffusion: integer diffusion that conserves total mass. Each step a
// processor keeps a share of its value and receives equal integer shares
// from each neighbour (remainders stay home). The invariant — the global
// sum never changes — catches any emulation that loses or duplicates a
// message's effect.
type SumDiffusion struct{}

// Name implements Program.
func (SumDiffusion) Name() string { return "sumdiffusion" }

// Init implements Program.
func (SumDiffusion) Init(v int) Word { return Word(v*v%97 + 1) }

// Step implements Program: v gives each neighbour floor(own/(deg+1)) and
// keeps the rest; symmetric receipt reconstructs from neighbour states.
// Every processor runs the same rule, so v can compute what it receives
// from neighbour u knowing u's state and degree... degree information is
// not passed, so this program is defined only on regular graphs, where the
// share is own/(deg+1) with deg = len(neighbors).
func (SumDiffusion) Step(_, _ int, own Word, neighbors []Word) Word {
	deg := Word(len(neighbors))
	if deg == 0 {
		return own
	}
	share := own / (deg + 1)
	next := own - deg*share
	for _, w := range neighbors {
		next += w / (deg + 1)
	}
	return next
}

// ParityWave: each processor XORs the low bits of its neighbourhood — a
// brittle state machine in which a single misdelivered word corrupts the
// wavefront, making it a good tamper detector for the emulation path.
type ParityWave struct{}

// Name implements Program.
func (ParityWave) Name() string { return "paritywave" }

// Init implements Program.
func (ParityWave) Init(v int) Word { return Word(v & 1) }

// Step implements Program.
func (ParityWave) Step(_, v int, own Word, neighbors []Word) Word {
	x := own ^ Word(v&3)
	for _, w := range neighbors {
		x ^= w
	}
	return x & 0xffff
}

// ByName returns a library program by name, for the command-line tools.
func ByName(name string) (Program, error) {
	switch name {
	case "floodmax":
		return &FloodMax{}, nil
	case "sumdiffusion":
		return SumDiffusion{}, nil
	case "paritywave":
		return ParityWave{}, nil
	case "oddevensort":
		return nil, fmt.Errorf("program: oddevensort needs its guest size; construct it directly")
	default:
		return nil, fmt.Errorf("program: unknown program %q (floodmax, sumdiffusion, paritywave)", name)
	}
}

// OddEvenSort runs odd-even transposition sort on a linear-array guest:
// in even rounds, pairs (0,1), (2,3), ... compare-exchange; in odd rounds
// pairs (1,2), (3,4), .... After n rounds the values are sorted ascending
// by position — a full algorithm with a checkable output, not just an
// invariant. Defined only on LinearArray guests. The initial values are a
// fixed scramble of distinct values, descending by position.
type OddEvenSort struct {
	N int // the guest size
}

// Name implements Program.
func (o *OddEvenSort) Name() string { return "oddevensort" }

// Init implements Program.
func (o *OddEvenSort) Init(v int) Word {
	return Word((o.N - v) * 7 % (o.N*7 + 1))
}

// Step implements Program: position v pairs with v+1 when v and the round
// share parity, else with v-1; the left element keeps the min, the right
// the max. Boundary positions without a partner in this round idle.
func (o *OddEvenSort) Step(round, v int, own Word, neighbors []Word) Word {
	// On a linear array, neighbors are [v-1, v+1] (or a single one at the
	// ends, ascending order).
	var left, right *Word
	if v == 0 {
		if len(neighbors) > 0 {
			right = &neighbors[0]
		}
	} else {
		left = &neighbors[0]
		if len(neighbors) > 1 {
			right = &neighbors[1]
		}
	}
	if v%2 == round%2 {
		// Pair with the right neighbour: keep the min.
		if right != nil && *right < own {
			return *right
		}
		return own
	}
	// Pair with the left neighbour: keep the max.
	if left != nil && *left > own {
		return *left
	}
	return own
}

// Sorted reports whether states are ascending.
func Sorted(states []Word) bool {
	for i := 1; i < len(states); i++ {
		if states[i] < states[i-1] {
			return false
		}
	}
	return true
}
