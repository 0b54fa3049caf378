package growth

import (
	"math"
	"testing"
	"testing/quick"
)

// nlg returns Θ(n^pow lg^logPow n).
func nlg(pow, logPow Rat) Func { return Func{Coeff: 1, Pow: pow, LogPow: logPow} }

func TestRatNormalization(t *testing.T) {
	cases := []struct {
		num, den, wantNum, wantDen int64
	}{
		{2, 4, 1, 2},
		{-2, 4, -1, 2},
		{2, -4, -1, 2},
		{-2, -4, 1, 2},
		{0, 5, 0, 1},
		{7, 1, 7, 1},
		{6, 3, 2, 1},
	}
	for _, c := range cases {
		r := R(c.num, c.den)
		if r.Num != c.wantNum || r.Den != c.wantDen {
			t.Errorf("R(%d,%d) = %v, want %d/%d", c.num, c.den, r, c.wantNum, c.wantDen)
		}
	}
}

func TestRatZeroDenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("R(1,0) did not panic")
		}
	}()
	R(1, 0)
}

func TestRatArithmetic(t *testing.T) {
	a, b := R(1, 2), R(1, 3)
	if got := a.Sub(b); got != R(1, 6) {
		t.Errorf("1/2-1/3 = %v", got)
	}
	if got := a.Mul(b); got != R(1, 6) {
		t.Errorf("1/2*1/3 = %v", got)
	}
	if got := a.Div(b); got != R(3, 2) {
		t.Errorf("(1/2)/(1/3) = %v", got)
	}
}

func TestRatDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("division by zero did not panic")
		}
	}()
	R(1, 2).Div(Int(0))
}

func TestRatCmpSign(t *testing.T) {
	if R(1, 3).Cmp(R(1, 2)) != -1 {
		t.Error("1/3 should be < 1/2")
	}
	if R(2, 4).Cmp(R(1, 2)) != 0 {
		t.Error("2/4 should equal 1/2")
	}
	if Int(1).Cmp(R(1, 2)) != 1 {
		t.Error("1 should be > 1/2")
	}
	if R(-1, 2).Sign() != -1 || Int(0).Sign() != 0 || R(3, 4).Sign() != 1 {
		t.Error("Sign wrong")
	}
}

func TestRatString(t *testing.T) {
	if s := R(3, 6).String(); s != "1/2" {
		t.Errorf("String = %q", s)
	}
	if s := Int(4).String(); s != "4" {
		t.Errorf("String = %q", s)
	}
}

func TestFuncString(t *testing.T) {
	cases := []struct {
		f    Func
		want string
	}{
		{One(), "1"},
		{Poly(1, 1), "n"},
		{Poly(1, 2), "n^{1/2}"},
		{PolyLog(1), "lg n"},
		{PolyLog(2), "lg^{2} n"},
		{nlg(R(2, 3), Int(1)), "n^{2/3} lg n"},
		{Poly(1, 1).Div(PolyLog(1)), "n lg^{-1} n"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestFuncInVariable(t *testing.T) {
	f := nlg(R(1, 2), Int(1))
	if got := f.InVariable("|G|"); got != "|G|^{1/2} lg |G|" {
		t.Errorf("InVariable = %q", got)
	}
	if got := Poly(1, 1).InVariable("m"); got != "m" {
		t.Errorf("InVariable = %q", got)
	}
}

func TestFuncDiv(t *testing.T) {
	f := nlg(R(1, 2), Int(1)) // n^{1/2} lg n
	g := Poly(1, 1)           // n
	q := g.Div(f)
	if q.Pow != R(1, 2) || q.LogPow != Int(-1) {
		t.Errorf("Div = %v", q)
	}
}

func TestFuncEval(t *testing.T) {
	f := Poly(1, 2) // sqrt(n)
	if got := f.Eval(1024); math.Abs(got-32) > 1e-9 {
		t.Errorf("Eval(1024) = %v, want 32", got)
	}
	g := PolyLog(1)
	if got := g.Eval(1024); math.Abs(got-10) > 1e-9 {
		t.Errorf("lg(1024) = %v, want 10", got)
	}
	h := Poly(1, 1).Div(PolyLog(1)).WithCoeff(2)
	if got := h.Eval(256); math.Abs(got-2*256.0/8.0) > 1e-9 {
		t.Errorf("2n/lg n at 256 = %v, want 64", got)
	}
}

func TestFuncPowBy(t *testing.T) {
	f := nlg(R(1, 2), Int(1))
	g := f.PowBy(Int(2))
	if g.Pow != Int(1) || g.LogPow != Int(2) {
		t.Errorf("PowBy(2) = %v", g)
	}
}

func TestWithCoeffInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithCoeff(-1) did not panic")
		}
	}()
	One().WithCoeff(-1)
}

// The paper's §1 running example: de Bruijn guest (per-node bandwidth
// 1/lg n) on a 2-d mesh host (per-node bandwidth m^{-1/2}) gives maximum
// host size m = Θ(lg² n).
func TestSolveDeBruijnOnMesh(t *testing.T) {
	host := Poly(-1, 2)  // m^{-1/2}
	guest := PolyLog(-1) // lg^{-1} n
	sol := Solve(host, guest)
	if sol.Kind != Polynomial {
		t.Fatalf("kind = %v, want polynomial", sol.Kind)
	}
	if sol.M.Pow.Sign() != 0 || sol.M.LogPow != Int(2) {
		t.Fatalf("M = %v, want lg^2 n", sol.M)
	}
	if sol.UpToLogLog {
		t.Fatal("should be exact, not up-to-lglg")
	}
}

// Table 1, linear-array host row: mesh^j guest on a linear array gives
// m = Θ(n^{1/j}).
func TestSolveMeshOnLinearArray(t *testing.T) {
	for j := int64(1); j <= 4; j++ {
		host := Poly(-1, 1)  // 1/m
		guest := Poly(-1, j) // n^{-1/j}
		sol := Solve(host, guest)
		if sol.Kind != Polynomial {
			t.Fatalf("j=%d: kind = %v", j, sol.Kind)
		}
		if sol.M.Pow != R(1, j) || sol.M.LogPow.Sign() != 0 {
			t.Fatalf("j=%d: M = %v, want n^{1/%d}", j, sol.M, j)
		}
	}
}

// Table 1, X-Tree host row: mesh^j guest on an X-Tree (per-node bandwidth
// lg m / m) gives m = Θ(n^{1/j} lg n).
func TestSolveMeshOnXTree(t *testing.T) {
	host := PolyLog(1).Div(Poly(1, 1)) // lg m / m
	guest := Poly(-1, 2)
	sol := Solve(host, guest)
	if sol.Kind != Polynomial {
		t.Fatalf("kind = %v", sol.Kind)
	}
	if sol.M.Pow != R(1, 2) || sol.M.LogPow != Int(1) {
		t.Fatalf("M = %v, want n^{1/2} lg n", sol.M)
	}
}

// Mesh^k host for mesh^j guest: m = Θ(n^{k/j}).
func TestSolveMeshOnMesh(t *testing.T) {
	host := Poly(-1, 3)  // k=3
	guest := Poly(-1, 2) // j=2
	sol := Solve(host, guest)
	if sol.Kind != Polynomial || sol.M.Pow != R(3, 2) {
		t.Fatalf("sol = %+v, want n^{3/2}", sol)
	}
}

// Butterfly-class host for a butterfly-class guest: same-size host works
// (m = Θ(n)).
func TestSolveButterflyOnButterfly(t *testing.T) {
	host := PolyLog(-1)  // 1/lg m
	guest := PolyLog(-1) // 1/lg n
	sol := Solve(host, guest)
	if sol.Kind != Polynomial {
		t.Fatalf("kind = %v", sol.Kind)
	}
	if sol.M.Pow != Int(1) || sol.M.LogPow.Sign() != 0 {
		t.Fatalf("M = %v, want n", sol.M)
	}
}

// Butterfly host for a mesh guest: the bandwidth constraint is vacuous
// (exponential solution) — consistent with Koch et al.'s positive result
// that a butterfly can efficiently emulate a same-size mesh.
func TestSolveMeshOnButterflyExponential(t *testing.T) {
	host := PolyLog(-1)
	guest := Poly(-1, 2)
	sol := Solve(host, guest)
	if sol.Kind != Exponential {
		t.Fatalf("kind = %v, want exponential", sol.Kind)
	}
	if sol.Exponent.Pow != R(1, 2) {
		t.Fatalf("exponent = %v, want n^{1/2}", sol.Exponent)
	}
}

func TestSolveUnbounded(t *testing.T) {
	sol := Solve(One(), Poly(-1, 2))
	if sol.Kind != Unbounded {
		t.Fatalf("kind = %v, want unbounded", sol.Kind)
	}
}

func TestSolveInfeasible(t *testing.T) {
	// m^{1} = n^{-1}: needs m shrinking.
	sol := Solve(Poly(1, 1), Poly(-1, 1))
	if sol.Kind != Infeasible {
		t.Fatalf("kind = %v, want infeasible", sol.Kind)
	}
}

func TestSolveUpToLogLogFlag(t *testing.T) {
	// Host with residual log factor and purely polylog solution:
	// f(m) = lg m / m, guest 1/lg n: alpha = 0, b != 0.
	host := PolyLog(1).Div(Poly(1, 1))
	guest := PolyLog(-1)
	sol := Solve(host, guest)
	if sol.Kind != Polynomial {
		t.Fatalf("kind = %v", sol.Kind)
	}
	if !sol.UpToLogLog {
		t.Fatal("expected UpToLogLog")
	}
	if sol.M.LogPow != Int(1) {
		t.Fatalf("M = %v, want ~lg n", sol.M)
	}
}

// Property: Solve on pure powers is an exact inverse — f(Solve(f,g)(n))
// evaluates to g(n) for large n.
func TestPropertySolveInvertsPurePowers(t *testing.T) {
	f := func(aNum, gNum int64) bool {
		a := -(1 + absI(aNum)%4) // a in {-1..-4}
		s := -(1 + absI(gNum)%4) // s in {-1..-4}
		host := Poly(a, 2)       // m^{a/2}
		guest := Poly(s, 3)      // n^{s/3}
		sol := Solve(host, guest)
		if sol.Kind != Polynomial {
			return false
		}
		n := 1e6
		m := sol.M.Eval(n)
		lhs := host.Eval(m)
		rhs := guest.Eval(n)
		return math.Abs(lhs/rhs-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSolutionKindString(t *testing.T) {
	if Polynomial.String() != "polynomial" || Exponential.String() != "exponential" ||
		Unbounded.String() != "unbounded" || Infeasible.String() != "infeasible" {
		t.Error("SolutionKind strings wrong")
	}
	if SolutionKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func absI(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
