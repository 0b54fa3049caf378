// Package growth implements a small algebra of asymptotic growth functions
// of the form
//
//	f(n) = coeff * n^(p/q) * lg^(r/s) n
//
// with exact rational exponents. This is the calculus that turns the paper's
// Table 4 (bandwidths β(M) of network machines) into Tables 1–3 (maximum
// host sizes for efficient emulation): the Efficient Emulation Theorem
// requires the per-node bandwidth of the host to dominate that of the guest,
//
//	β(H)/|H|  >=  Θ( β(G)/|G| ),
//
// and the maximum host size is the m solving β_H(m)/m = β_G(n)/n. Solve
// performs that inversion symbolically.
package growth

import "fmt"

// Rat is an exact rational number with a positive denominator, always kept
// in lowest terms. The zero value is 0/1: every method treats Den == 0 as
// Den == 1, so struct-literal zero values behave as the number zero.
type Rat struct {
	Num, Den int64
}

// v canonicalizes the zero value: Den == 0 means Den == 1.
func (r Rat) v() Rat {
	if r.Den == 0 {
		r.Den = 1
	}
	return r
}

// R returns the normalized rational num/den. It panics if den == 0.
func R(num, den int64) Rat {
	if den == 0 {
		panic("growth: zero denominator")
	}
	if den < 0 {
		num, den = -num, -den
	}
	g := gcd(abs(num), den)
	if g > 1 {
		num /= g
		den /= g
	}
	return Rat{Num: num, Den: den}
}

// Int returns the rational k/1.
func Int(k int64) Rat { return Rat{Num: k, Den: 1} }

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// norm re-normalizes a possibly denormalized rational.
func (r Rat) norm() Rat { r = r.v(); return R(r.Num, r.Den) }

// Sub returns r - o.
func (r Rat) Sub(o Rat) Rat {
	r, o = r.v(), o.v()
	return R(r.Num*o.Den-o.Num*r.Den, r.Den*o.Den)
}

// Mul returns r * o.
func (r Rat) Mul(o Rat) Rat {
	r, o = r.v(), o.v()
	return R(r.Num*o.Num, r.Den*o.Den)
}

// Div returns r / o. It panics if o is zero.
func (r Rat) Div(o Rat) Rat {
	r, o = r.v(), o.v()
	if o.Num == 0 {
		panic("growth: division by zero rational")
	}
	return R(r.Num*o.Den, r.Den*o.Num)
}

// Cmp returns -1, 0, or +1 as r is less than, equal to, or greater than o.
func (r Rat) Cmp(o Rat) int {
	r, o = r.v(), o.v()
	lhs := r.Num * o.Den
	rhs := o.Num * r.Den
	switch {
	case lhs < rhs:
		return -1
	case lhs > rhs:
		return 1
	default:
		return 0
	}
}

// Sign returns the sign of r.
func (r Rat) Sign() int {
	switch {
	case r.Num < 0:
		return -1
	case r.Num > 0:
		return 1
	default:
		return 0
	}
}

// IsZero reports whether r == 0.
func (r Rat) IsZero() bool { return r.Num == 0 }

// Float returns the float64 value of r.
func (r Rat) Float() float64 { r = r.v(); return float64(r.Num) / float64(r.Den) }

// String renders "p" for integers and "p/q" otherwise.
func (r Rat) String() string {
	r = r.v()
	if r.Den == 1 {
		return fmt.Sprintf("%d", r.Num)
	}
	return fmt.Sprintf("%d/%d", r.Num, r.Den)
}
