// Package stats holds the order statistics the benchmark reports and
// judges with: nearest-rank percentiles for per-request latencies, and
// the exclusive-method quartiles that Python's
// statistics.quantiles(xs, n=4) computes, for run-to-run spreads.
package stats

import (
	"math"
	"sort"
)

// MinBeyond is how many samples must lie above a percentile before it
// is reported as a measurement rather than a guess.
const MinBeyond = 10

// Sorted returns an ascending copy of xs.
func Sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// rank is the 1-based nearest rank of quantile q among n samples:
// ⌈q·n⌉, clamped to [1, n].
func rank(n int, q float64) int {
	// The epsilon keeps 0.9·10 (8.999…) from rounding up to 10.
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// NearestRank returns the nearest-rank q-quantile of the ascending
// sample sorted: the smallest sample with at least ⌈q·n⌉ samples at or
// below it. It returns 0 for an empty sample.
func NearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// Beyond returns how many of n samples lie above the nearest-rank
// q-quantile.
func Beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// Supported reports whether n samples put at least MinBeyond samples
// above the q-quantile.
func Supported(n int, q float64) bool { return n > 0 && Beyond(n, q) >= MinBeyond }

// Median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty sample.
func Median(xs []float64) float64 {
	s := Sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Quartiles returns the first and third quartiles of xs by the
// exclusive method, exactly as statistics.quantiles(xs, n=4) does
// (with its clamping for small samples). Fewer than two samples have no
// spread: both quartiles are then the sample itself (or 0).
func Quartiles(xs []float64) (q1, q3 float64) {
	s := Sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}
