package experiment

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/topology"
)

// The core contract: job results depend only on (seed, key), never on the
// worker count or submission order.
func TestJobResultsInvariantUnderWorkerCount(t *testing.T) {
	run := func(workers int, reverse bool) []int64 {
		r := New(42, workers)
		keys := make([]string, 16)
		for i := range keys {
			keys[i] = fmt.Sprintf("job/%d", i)
		}
		futs := make([]*Future[int64], len(keys))
		idx := make([]int, len(keys))
		for i := range idx {
			idx[i] = i
		}
		if reverse {
			for i, j := 0, len(idx)-1; i < j; i, j = i+1, j-1 {
				idx[i], idx[j] = idx[j], idx[i]
			}
		}
		for _, i := range idx {
			futs[i] = Go(r, keys[i], func(rng *rand.Rand) int64 { return rng.Int63() })
		}
		out := make([]int64, len(futs))
		for i, f := range futs {
			out[i] = f.Wait()
		}
		return out
	}
	want := run(1, false)
	for _, workers := range []int{1, 2, 8} {
		for _, reverse := range []bool{false, true} {
			got := run(workers, reverse)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d reverse=%v: job %d = %d, want %d",
						workers, reverse, i, got[i], want[i])
				}
			}
		}
	}
}

func TestRNGIndependentOfCallOrder(t *testing.T) {
	a := New(7, 2)
	b := New(7, 2)
	_ = a.RNG("warmup").Int63() // extra draws must not shift other streams
	if got, want := a.RNG("x").Int63(), b.RNG("x").Int63(); got != want {
		t.Fatalf("stream x differs across runners: %d vs %d", got, want)
	}
	if a.RNG("x").Int63() == a.RNG("y").Int63() {
		t.Fatal("distinct keys collided")
	}
}

// A job that Waits on not-yet-started jobs must not deadlock the pool: Wait
// claims and runs pending jobs inline.
func TestNestedWaitDoesNotDeadlock(t *testing.T) {
	r := New(1, 1) // one slot: the parent occupies it while waiting
	parent := Go(r, "parent", func(rng *rand.Rand) int {
		children := make([]*Future[int], 8)
		for i := range children {
			key := fmt.Sprintf("child/%d", i)
			children[i] = Go(r, key, func(rng *rand.Rand) int { return 1 })
		}
		total := 0
		for _, c := range children {
			total += c.Wait()
		}
		return total
	})
	if got := parent.Wait(); got != 8 {
		t.Fatalf("parent = %d, want 8", got)
	}
}

// β depends only on (seed, key): a run at another worker count, and
// options spelled differently but canonically equal (the zero value and
// the explicit defaults {2,4,8}×2), give the same value.
func TestBetaCacheMatchesColdRun(t *testing.T) {
	opts := bandwidth.MeasureOptions{}.Canonical()
	want := New(9, 4).BetaFuture(topology.DeBruijnFamily, 0, 64, opts).Wait().Beta
	if want <= 0 {
		t.Fatalf("non-positive beta %v", want)
	}
	r := New(9, 1)
	for _, o := range []bandwidth.MeasureOptions{opts, {}, {LoadFactors: []int{2, 4, 8}, Trials: 2}} {
		if got := r.BetaFuture(topology.DeBruijnFamily, 0, 64, o).Wait().Beta; got != want {
			t.Fatalf("options %+v: beta %v, want %v", o, got, want)
		}
	}
}
