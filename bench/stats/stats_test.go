package stats

import (
	"math"
	"testing"
)

func TestNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	cases := []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"empty", nil, 0.5, 0},
		{"single", []float64{7}, 0.99, 7},
		{"median of ten is the fifth", ten, 0.5, 5},
		{"p90 of ten is the ninth", ten, 0.9, 9},
		{"p99 of ten is the max", ten, 0.99, 10},
		{"p1 of ten is the min", ten, 0.01, 1},
		{"p50 of hundred", hundred, 0.5, 50},
		{"p99 of hundred", hundred, 0.99, 99},
		{"q=1 is the max", hundred, 1, 100},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := NearestRank(c.sorted, c.q); got != c.want {
				t.Errorf("NearestRank(q=%v) = %v, want %v", c.q, got, c.want)
			}
		})
	}
}

func TestSupported(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		beyond int
		ok     bool
	}{
		{0, 0.5, 0, false},
		{10, 0.5, 5, false},
		{20, 0.5, 10, true},
		{100, 0.9, 10, true},
		{99, 0.9, 9, false},
		{120, 0.99, 1, false}, // the old BENCH_netemud.json p99
		{999, 0.99, 9, false},
		{1000, 0.99, 10, true},
	}
	for _, c := range cases {
		if got := Beyond(c.n, c.q); got != c.beyond {
			t.Errorf("Beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.beyond)
		}
		if got := Supported(c.n, c.q); got != c.ok {
			t.Errorf("Supported(%d, %v) = %v, want %v", c.n, c.q, got, c.ok)
		}
	}
}

// The expectations are statistics.quantiles(xs, n=4) from Python 3.11.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25}, // the exclusive method extrapolates

		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{100, 101, 99, 102, 98, 103, 97, 104, 96, 150}, 97.75, 103.25},
	}
	for _, c := range cases {
		q1, q3 := Quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}
