package bandwidth

import (
	"math/rand"
	"testing"

	"repro/internal/measure"
	"repro/internal/topology"
)

// ISSUE satellite: MeasureBeta must be invariant under the ordering of
// LoadFactors — every (load factor, trial) pair runs on its own SeedPlan
// stream keyed by its values, not by iteration order.
func TestMeasureBetaLoadFactorOrderInvariant(t *testing.T) {
	m := topology.Mesh(2, 6)
	orders := [][]int{{2, 4, 8}, {8, 2, 4}, {4, 8, 2}}
	var ref Measurement
	for i, lfs := range orders {
		opts := MeasureOptions{LoadFactors: lfs, Trials: 2}
		got := symmetricBeta(m, opts, rand.New(rand.NewSource(21)))
		if i == 0 {
			ref = got
			continue
		}
		if got.Beta != ref.Beta {
			t.Errorf("order %v: beta %v != %v", lfs, got.Beta, ref.Beta)
		}
		for lf, rate := range ref.RateByLoad {
			if got.RateByLoad[lf] != rate {
				t.Errorf("order %v: rate at load %d = %v, want %v", lfs, lf, got.RateByLoad[lf], rate)
			}
		}
	}
}

// Trials of one load factor must not perturb another's stream: measuring a
// subset of the load factors reproduces exactly the same per-load rates.
func TestMeasureBetaLoadFactorsIndependent(t *testing.T) {
	m := topology.Mesh(2, 6)
	full := symmetricBeta(m, MeasureOptions{LoadFactors: []int{2, 4, 8}, Trials: 2}, rand.New(rand.NewSource(33)))
	only8 := symmetricBeta(m, MeasureOptions{LoadFactors: []int{8}, Trials: 2}, rand.New(rand.NewSource(33)))
	if full.RateByLoad[8] != only8.RateByLoad[8] {
		t.Fatalf("rate at load 8 depends on other load factors: %v vs %v",
			full.RateByLoad[8], only8.RateByLoad[8])
	}
}

// The SeedPlan itself: same keys same stream, different keys different
// streams, hierarchical Fork equivalence.
func TestSeedPlanContract(t *testing.T) {
	p := measure.NewSeedPlan(5)
	if p.RNG(1, 2).Int63() != p.RNG(1, 2).Int63() {
		t.Fatal("same keys gave different streams")
	}
	if p.Fork(1).RNG(2).Int63() != p.RNG(1, 2).Int63() {
		t.Fatal("Fork(1).RNG(2) != RNG(1, 2)")
	}
	seen := map[int64]bool{}
	for a := uint64(0); a < 10; a++ {
		for b := uint64(0); b < 10; b++ {
			v := p.RNG(a, b).Int63()
			if seen[v] {
				t.Fatalf("stream collision at keys (%d, %d)", a, b)
			}
			seen[v] = true
		}
	}
	if measure.NewSeedPlan(1).RNG(3).Int63() == measure.NewSeedPlan(2).RNG(3).Int63() {
		t.Fatal("different base seeds gave the same stream")
	}
}
