package main

import (
	"math"

	"repro/bench/stats"
)

// Verdicts, after the rule in the choosing-metrics guide (§6, §8).
const (
	Win        = "win"        // change better in ≥ 9/10 of pairs, by more than the parent's spread
	Regressed  = "regressed"  // change median worse than the parent's by more than the bound
	Loss       = "loss"       // unbounded metric: Win's rule with the sides swapped
	Unresolved = "unresolved" // spread wider than the bound, or no clear direction
	Within     = "within"     // no worse than the bound, on a spread the bound can resolve
	TooFew     = "too-few"    // fewer than MinPairs pairs: medians only
	NotUsed    = "n/a"        // every run reads 0: the workload does not exercise it
)

// MinPairs is the fewest parent/change pairs a verdict rests on.
const MinPairs = 10

// side summarizes one side's runs of a metric.
type side struct {
	med, q1, q3 float64
}

func summarize(xs []float64) side {
	q1, q3 := stats.Quartiles(xs)
	return side{med: stats.Median(xs), q1: q1, q3: q3}
}

// spread is the interquartile distance as a share of the median.
func (s side) spread() float64 {
	if s.med == 0 {
		return 0
	}
	return math.Abs(s.q3-s.q1) / math.Abs(s.med)
}

// judgement is the outcome for one (workload, metric).
type judgement struct {
	parent, change side
	wins, pairs    int
	// worse is how much the change's median is worse than the parent's,
	// as a share of the parent's (negative when better).
	worse   float64
	verdict string
}

// judge compares paired runs: parent[i] and change[i] ran back to back.
// lowerBetter gives the metric's direction; bound < 0 means the metric
// has no bound (a per-layer metric).
func judge(parent, change []float64, lowerBetter bool, bound float64) judgement {
	j := judgement{parent: summarize(parent), change: summarize(change), pairs: len(parent)}
	better := func(c, p float64) bool {
		if lowerBetter {
			return c < p
		}
		return c > p
	}
	losses := 0
	for i := range parent {
		switch {
		case better(change[i], parent[i]):
			j.wins++
		case better(parent[i], change[i]):
			losses++
		}
	}
	delta := j.change.med - j.parent.med
	if lowerBetter {
		j.worse = delta
	} else {
		j.worse = -delta
	}
	if j.parent.med != 0 {
		j.worse /= math.Abs(j.parent.med)
	}

	allZero := true
	for i := range parent {
		allZero = allZero && parent[i] == 0 && change[i] == 0
	}
	clear := func(n int, own side) bool {
		return n*10 >= 9*j.pairs && math.Abs(delta) > math.Abs(own.q3-own.q1)
	}
	switch {
	case allZero:
		j.verdict = NotUsed
	case j.pairs < MinPairs:
		j.verdict = TooFew
	case clear(j.wins, j.parent):
		j.verdict = Win
	case bound < 0 && clear(losses, j.change):
		j.verdict = Loss
	case bound < 0:
		j.verdict = Unresolved
	case j.worse > bound:
		j.verdict = Regressed
	case math.Max(j.parent.spread(), j.change.spread()) > bound && !everyRunBetter(parent, change, better):
		j.verdict = Unresolved
	default:
		j.verdict = Within
	}
	return j
}

// everyRunBetter reports whether every change run beats every parent
// run.
func everyRunBetter(parent, change []float64, better func(c, p float64) bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				return false
			}
		}
	}
	return true
}
