package growth

import "testing"

// FuzzRatArithmetic checks closure properties of the rational arithmetic
// on arbitrary small operands: normalization invariants hold after every
// operation.
func FuzzRatArithmetic(f *testing.F) {
	f.Add(int64(1), int64(2), int64(-3), int64(4))
	f.Add(int64(0), int64(1), int64(7), int64(7))
	f.Fuzz(func(t *testing.T, an, ad, bn, bd int64) {
		// Clamp to small values: the Rat type documents int64 overflow as
		// out of scope (exponents in practice are tiny).
		clamp := func(x int64) int64 {
			if x > 1000 {
				return 1000
			}
			if x < -1000 {
				return -1000
			}
			return x
		}
		an, ad, bn, bd = clamp(an), clamp(ad), clamp(bn), clamp(bd)
		if ad == 0 || bd == 0 {
			return
		}
		a, b := R(an, ad), R(bn, bd)
		for _, r := range []Rat{a.Sub(b), a.Mul(b)} {
			if r.Den <= 0 {
				t.Fatalf("non-positive denominator %v", r)
			}
			if g := gcd(abs(r.Num), r.Den); r.Num != 0 && g != 1 {
				t.Fatalf("not in lowest terms: %v", r)
			}
		}
		if b.Sign() != 0 {
			if r := a.Div(b); r.Den <= 0 {
				t.Fatalf("division broke normalization: %v", r)
			}
		}
	})
}
