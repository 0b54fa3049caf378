package bandwidth

import (
	"fmt"
	"math/rand"

	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The paper's Definition: machine H is bottleneck-free if the average
// message delivery rate under any quasi-symmetric distribution on
// m <= |H| nodes is at most a constant factor higher than the rate under
// the symmetric distribution. The Efficient Emulation Theorem requires the
// host to be bottleneck-free; the paper notes without proof that the
// standard machines are. The auditor below checks the property
// statistically on concrete instances.

// BottleneckReport is the outcome of a bottleneck-freeness audit.
type BottleneckReport struct {
	Machine       *topology.Machine
	SymmetricBeta float64
	// WorstRatio is the maximum over trials of rate(quasi)/rate(symmetric).
	WorstRatio float64
	// Trials records each quasi-symmetric measurement.
	Trials []BottleneckTrial
}

// BottleneckTrial is one quasi-symmetric measurement.
type BottleneckTrial struct {
	SubsetSize int
	Pairs      int
	Rate       float64
	Ratio      float64
}

// Free reports whether the machine passed at the given tolerance: no
// quasi-symmetric distribution delivered more than tol times the symmetric
// rate.
func (r BottleneckReport) Free(tol float64) bool { return r.WorstRatio <= tol }

// AuditBottleneck measures the symmetric rate once, then `trials` random
// quasi-symmetric distributions on random subset sizes in [4, |H|], and
// reports the worst rate ratio. Quasi-symmetric rates on *small* subsets
// are naturally lower (fewer senders); the definition only requires they
// never exceed the symmetric rate by more than a constant.
func AuditBottleneck(m *topology.Machine, trials int, opts MeasureOptions, rng *rand.Rand) BottleneckReport {
	if trials < 1 {
		trials = 1
	}
	if m.N() < 4 {
		panic(fmt.Sprintf("bandwidth: machine %s too small to audit", m.Name))
	}
	eng := routing.NewEngine(m, opts.Strategy)
	sym := MeasureBeta(eng, traffic.NewSymmetric(m.N()), opts, rng)
	report := BottleneckReport{Machine: m, SymmetricBeta: sym.Beta}
	for t := 0; t < trials; t++ {
		// Bias subset sizes toward large fractions, where a bottleneck
		// would show: m in [n/2, n].
		size := m.N()/2 + rng.Intn(m.N()/2+1)
		if size < 4 {
			size = 4
		}
		if size > m.N() {
			size = m.N()
		}
		q := traffic.RandomQuasiSymmetric(m.N(), size, 0.5, rng)
		meas := MeasureBeta(eng, q, opts, rng)
		ratio := 0.0
		if sym.Beta > 0 {
			ratio = meas.Beta / sym.Beta
		}
		report.Trials = append(report.Trials, BottleneckTrial{
			SubsetSize: size,
			Pairs:      len(q.Pairs()),
			Rate:       meas.Beta,
			Ratio:      ratio,
		})
		if ratio > report.WorstRatio {
			report.WorstRatio = ratio
		}
	}
	return report
}
