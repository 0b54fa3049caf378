package netemu

// System-level sweep: the Efficient Emulation Theorem's direction must hold
// for EVERY guest/host family pair — measured slowdown never meaningfully
// below the predicted lower bound. This is the repository's broadest
// end-to-end check; it runs ~300 emulations and is skipped under -short.

import (
	"testing"
)

func TestSystemFullMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix sweep skipped in -short mode")
	}
	var guests, hosts []*Machine
	for _, f := range Families() {
		dim := 0
		if f.Dimensioned() {
			dim = 2
		}
		m := NewMachine(f, dim, 64, 1)
		// Guests must be pure processor machines (the emulator simulates
		// every vertex); bus-like machines can only host.
		if m.N() == m.Graph.N() {
			guests = append(guests, m)
		}
		hosts = append(hosts, NewMachine(f, dim, 16, 2))
	}
	if len(guests) < 15 || len(hosts) < 18 {
		t.Fatalf("matrix too small: %d guests, %d hosts", len(guests), len(hosts))
	}
	checked := 0
	for _, g := range guests {
		for _, h := range hosts {
			check, err := VerifyBound(g, h, 2, 3)
			if err != nil {
				t.Fatalf("%s on %s: %v", g.Name, h.Name, err)
			}
			if check.Ratio < 0.4 {
				t.Errorf("%s on %s: measured %.2f below bound %.2f (ratio %.2f)",
					g.Name, h.Name, check.Measured, check.Predicted, check.Ratio)
			}
			checked++
		}
	}
	t.Logf("verified %d guest/host pairs", checked)
}

// Every family must measure a positive bandwidth and respect its flux
// bound at a common size.
func TestSystemAllFamiliesMeasurable(t *testing.T) {
	if testing.Short() {
		t.Skip("family sweep skipped in -short mode")
	}
	for _, f := range Families() {
		dim := 0
		if f.Dimensioned() {
			dim = 2
		}
		m := NewMachine(f, dim, 80, 4)
		meas := mustRun(t, m, RunSpec{Kind: RunBeta, LoadFactors: []int{2, 4}, Trials: 1, Seed: 4})
		if meas.Beta <= 0 {
			t.Errorf("%v: zero bandwidth", f)
		}
	}
}

// The max-host-size solver must produce a non-infeasible answer for every
// guest/host family pair — the tables have no holes.
func TestSystemTablesComplete(t *testing.T) {
	for _, gf := range Families() {
		for _, hf := range Families() {
			gd, hd := 0, 0
			if gf.Dimensioned() {
				gd = 2
			}
			if hf.Dimensioned() {
				hd = 3
			}
			b, err := SlowdownBound(Spec{Family: gf, Dim: gd}, Spec{Family: hf, Dim: hd})
			if err != nil {
				t.Fatalf("%v on %v: %v", gf, hf, err)
			}
			if s := b.MaxHostString(); s == "infeasible" {
				t.Errorf("%v on %v: infeasible max host", gf, hf)
			}
		}
	}
}

// All dimension combinations of Tables 1 and 2 must solve cleanly.
func TestSystemTablesAllDims(t *testing.T) {
	for j := 1; j <= 4; j++ {
		for k := 1; k <= 4; k++ {
			for _, rows := range [][]TableRow{Table1(j, k), Table2(j, k), Table3(k)} {
				for _, r := range rows {
					if r.MaxHost == "" || r.MaxHost == "infeasible" {
						t.Fatalf("j=%d k=%d: %v on %v: %q", j, k, r.Bound.Guest, r.Bound.Host, r.MaxHost)
					}
				}
			}
		}
	}
}
