// Package traffic models the message traffic distributions of the paper:
// the symmetric (all-pairs) distribution that defines bandwidth β, the
// quasi-symmetric distributions that define bottleneck-freeness, the
// K_{r,s} graph classes the proofs draw witnesses from, and the auxiliary
// permutation/hot-spot patterns used in experiments.
//
// A traffic distribution over n endpoints assigns relative frequencies to
// ordered (source, destination) pairs. Its traffic multigraph (the paper's
// T_π) has a vertex per endpoint and integral edge weights proportional to
// the pair frequencies.
package traffic

import (
	"fmt"
	"math/rand"

	"repro/internal/multigraph"
)

// Message is a single (source, destination) request.
type Message struct {
	Src, Dst int
}

// Distribution is a traffic distribution over endpoints 0..N()-1.
type Distribution interface {
	// Name identifies the distribution in reports.
	Name() string
	// N is the number of endpoints.
	N() int
	// Sample draws one message.
	Sample(rng *rand.Rand) Message
	// Graph returns the traffic multigraph: integral edge weights
	// proportional to pair frequencies. May be expensive for large n.
	Graph() *multigraph.Multigraph
}

// Batch draws m messages from d.
func Batch(d Distribution, m int, rng *rand.Rand) []Message {
	out := make([]Message, m)
	for i := range out {
		out[i] = d.Sample(rng)
	}
	return out
}

// Symmetric is the all-pairs distribution: every ordered pair of distinct
// endpoints is equally likely. This is the distribution that defines the
// paper's bandwidth β(M).
type Symmetric struct {
	n int
}

// NewSymmetric returns the symmetric distribution on n >= 2 endpoints.
func NewSymmetric(n int) *Symmetric {
	if n < 2 {
		panic(fmt.Sprintf("traffic: symmetric distribution needs n >= 2, got %d", n))
	}
	return &Symmetric{n: n}
}

func (s *Symmetric) Name() string { return fmt.Sprintf("symmetric[%d]", s.n) }
func (s *Symmetric) N() int       { return s.n }

func (s *Symmetric) Sample(rng *rand.Rand) Message {
	src := rng.Intn(s.n)
	dst := rng.Intn(s.n - 1)
	if dst >= src {
		dst++
	}
	return Message{Src: src, Dst: dst}
}

// Graph returns K_n with unit multiplicities.
func (s *Symmetric) Graph() *multigraph.Multigraph {
	g := multigraph.New(s.n)
	for u := 0; u < s.n; u++ {
		for v := u + 1; v < s.n; v++ {
			g.AddSimpleEdge(u, v)
		}
	}
	return g
}

// QuasiSymmetric is a distribution in which Ω(n²) of the possible ordered
// pairs are equally likely and the rest are disallowed — the paper's
// Definition used for bottleneck-freeness.
type QuasiSymmetric struct {
	n     int
	pairs []Message
}

// RandomQuasiSymmetric draws a quasi-symmetric distribution on a random
// subset of m of the n endpoints, allowing each ordered pair within the
// subset independently with probability density (so ~density*m² pairs).
// It retries until at least one pair is allowed.
func RandomQuasiSymmetric(n, m int, density float64, rng *rand.Rand) *QuasiSymmetric {
	if m < 2 || m > n {
		panic(fmt.Sprintf("traffic: subset size %d out of range [2,%d]", m, n))
	}
	if density <= 0 || density > 1 {
		panic(fmt.Sprintf("traffic: density %v out of (0,1]", density))
	}
	subset := rng.Perm(n)[:m]
	for {
		var pairs []Message
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				if i != j && rng.Float64() < density {
					pairs = append(pairs, Message{Src: subset[i], Dst: subset[j]})
				}
			}
		}
		if len(pairs) > 0 {
			return &QuasiSymmetric{n: n, pairs: pairs}
		}
	}
}

func (q *QuasiSymmetric) Name() string {
	return fmt.Sprintf("quasi-symmetric[%d pairs on %d]", len(q.pairs), q.n)
}
func (q *QuasiSymmetric) N() int { return q.n }

// Pairs returns the allowed pairs (shared slice; treat as read-only).
func (q *QuasiSymmetric) Pairs() []Message { return q.pairs }

func (q *QuasiSymmetric) Sample(rng *rand.Rand) Message {
	return q.pairs[rng.Intn(len(q.pairs))]
}

func (q *QuasiSymmetric) Graph() *multigraph.Multigraph {
	g := multigraph.New(q.n)
	for _, p := range q.pairs {
		g.AddEdge(p.Src, p.Dst, 1)
	}
	return g
}

// Permutation sends every endpoint's messages to a fixed partner.
type Permutation struct {
	n    int
	perm []int
}

// NewPermutation returns the distribution where endpoint i always sends to
// perm[i]. perm must be a fixed-point-free permutation of 0..n-1.
func NewPermutation(perm []int) *Permutation {
	n := len(perm)
	if n < 2 {
		panic("traffic: permutation needs n >= 2")
	}
	seen := make([]bool, n)
	for i, p := range perm {
		if p < 0 || p >= n || seen[p] {
			panic(fmt.Sprintf("traffic: invalid permutation at %d", i))
		}
		if p == i {
			panic(fmt.Sprintf("traffic: permutation has fixed point %d", i))
		}
		seen[p] = true
	}
	cp := make([]int, n)
	copy(cp, perm)
	return &Permutation{n: n, perm: cp}
}

// RandomPermutation returns a random fixed-point-free permutation
// distribution on n endpoints.
func RandomPermutation(n int, rng *rand.Rand) *Permutation {
	for {
		p := rng.Perm(n)
		ok := true
		for i, v := range p {
			if v == i {
				ok = false
				break
			}
		}
		if ok {
			return NewPermutation(p)
		}
	}
}

func (p *Permutation) Name() string { return fmt.Sprintf("permutation[%d]", p.n) }
func (p *Permutation) N() int       { return p.n }

func (p *Permutation) Sample(rng *rand.Rand) Message {
	src := rng.Intn(p.n)
	return Message{Src: src, Dst: p.perm[src]}
}

func (p *Permutation) Graph() *multigraph.Multigraph {
	g := multigraph.New(p.n)
	for i, v := range p.perm {
		g.AddEdge(i, v, 1)
	}
	return g
}
