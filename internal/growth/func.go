package growth

import (
	"fmt"
	"math"
	"strings"
)

// Func is an asymptotic growth function coeff * n^Pow * lg^LogPow n with
// exact rational exponents. Coeff is a positive constant; asymptotic
// comparisons ignore it unless the exponents tie. The zero value is not
// valid; use the constructors.
type Func struct {
	Coeff  float64
	Pow    Rat // exponent of n
	LogPow Rat // exponent of lg n
}

// One returns the constant function Θ(1).
func One() Func { return Func{Coeff: 1} }

// Poly returns Θ(n^(num/den)).
func Poly(num, den int64) Func { return Func{Coeff: 1, Pow: R(num, den)} }

// PolyLog returns Θ(lg^k n).
func PolyLog(k int64) Func { return Func{Coeff: 1, LogPow: Int(k)} }

// WithCoeff returns f scaled by the positive constant c.
func (f Func) WithCoeff(c float64) Func {
	if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
		panic(fmt.Sprintf("growth: invalid coefficient %v", c))
	}
	f.Coeff *= c
	return f
}

// Div returns f / g.
func (f Func) Div(g Func) Func {
	return Func{Coeff: f.Coeff / g.Coeff, Pow: f.Pow.Sub(g.Pow), LogPow: f.LogPow.Sub(g.LogPow)}
}

// PowBy returns f^e for rational e: exponents scale, the coefficient is
// raised to the float power.
func (f Func) PowBy(e Rat) Func {
	return Func{
		Coeff:  math.Pow(f.Coeff, e.Float()),
		Pow:    f.Pow.Mul(e),
		LogPow: f.LogPow.Mul(e),
	}
}

// Eval evaluates f at a concrete n >= 2 (lg is base-2).
func (f Func) Eval(n float64) float64 {
	if n < 2 {
		n = 2
	}
	lg := math.Log2(n)
	return f.Coeff * math.Pow(n, f.Pow.Float()) * math.Pow(lg, f.LogPow.Float())
}

func (f Func) render(v string) string {
	var parts []string
	if f.Pow.Sign() != 0 {
		if f.Pow.Cmp(Int(1)) == 0 {
			parts = append(parts, v)
		} else {
			parts = append(parts, fmt.Sprintf("%s^{%s}", v, f.Pow))
		}
	}
	if f.LogPow.Sign() != 0 {
		if f.LogPow.Cmp(Int(1)) == 0 {
			parts = append(parts, "lg "+v)
		} else {
			parts = append(parts, fmt.Sprintf("lg^{%s} %s", f.LogPow, v))
		}
	}
	if len(parts) == 0 {
		return "1"
	}
	return strings.Join(parts, " ")
}

// String renders the Θ-form, e.g. "n^{2/3} lg^2 n", "lg n", "1".
func (f Func) String() string { return f.render("n") }

// InVariable renders the Θ-form with a custom variable name, e.g.
// Poly(1,2).InVariable("|G|") = "|G|^{1/2}".
func (f Func) InVariable(v string) string { return f.render(v) }
