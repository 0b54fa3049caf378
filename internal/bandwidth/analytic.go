// Package bandwidth implements the paper's central quantity β(M) — the
// expected aggregate message-delivery rate of machine M under the symmetric
// traffic distribution — three ways:
//
//  1. analytically, as the growth formulas of Table 4;
//  2. operationally, by routing message batches on the simulator and
//     measuring m / r(m) (the paper's functional definition);
//  3. graph-theoretically, as E(T)/C(M, T) via the embed package
//     (Theorem 6's equivalence).
//
// It also provides λ(M) (the minimum guest-computation length, proportional
// to the average K_n-dilation, i.e. to diameter on these machines), the
// flux/bisection upper bounds used to sanity-check measurements, growth-
// exponent fitting across size sweeps, and the bottleneck-freeness audit
// from the paper's Definition.
package bandwidth

import (
	"fmt"

	"repro/internal/growth"
	"repro/internal/topology"
)

// Analytic holds the paper's Table 4 entry for a machine family.
type Analytic struct {
	// Beta is β(M) as a function of the machine size n.
	Beta growth.Func
	// Lambda is λ(M), the minimal guest time for the emulation theorems —
	// proportional to diameter/average distance on all these machines.
	Lambda growth.Func
}

// PerNodeBeta returns β(M)/n, the per-processor bandwidth the maximum-host
// solver works with.
func (a Analytic) PerNodeBeta() growth.Func { return a.Beta.Div(growth.Poly(1, 1)) }

// Table4 returns the analytic β and λ for the family (with dimension dim
// for the dimensioned families; ignored otherwise). This reproduces the
// paper's Table 4. It returns an error for unknown families.
func Table4(f topology.Family, dim int) (Analytic, error) {
	one := growth.One()
	logn := growth.PolyLog(1)
	switch f {
	case topology.LinearArrayFamily, topology.RingFamily:
		return Analytic{Beta: one, Lambda: growth.Poly(1, 1)}, nil
	case topology.GlobalBusFamily:
		return Analytic{Beta: one, Lambda: one}, nil
	case topology.TreeFamily, topology.WeakPPNFamily:
		return Analytic{Beta: one, Lambda: logn}, nil
	case topology.XTreeFamily:
		return Analytic{Beta: logn, Lambda: logn}, nil
	case topology.MeshFamily, topology.TorusFamily, topology.XGridFamily:
		if dim < 1 {
			return Analytic{}, fmt.Errorf("bandwidth: %v needs a dimension", f)
		}
		return Analytic{
			Beta:   growth.Poly(int64(dim-1), int64(dim)),
			Lambda: growth.Poly(1, int64(dim)),
		}, nil
	case topology.MeshOfTreesFamily, topology.MultigridFamily, topology.PyramidFamily:
		if dim < 1 {
			return Analytic{}, fmt.Errorf("bandwidth: %v needs a dimension", f)
		}
		// Same bisection-limited β as the mesh of the same dimension, but
		// the tree overlays bring λ down to Θ(lg n).
		return Analytic{
			Beta:   growth.Poly(int64(dim-1), int64(dim)),
			Lambda: logn,
		}, nil
	case topology.ButterflyFamily, topology.WrappedButterflyFamily,
		topology.CubeConnectedCyclesFamily, topology.ShuffleExchangeFamily,
		topology.DeBruijnFamily, topology.WeakHypercubeFamily,
		topology.MultibutterflyFamily, topology.ExpanderFamily:
		return Analytic{Beta: growth.Poly(1, 1).Div(logn), Lambda: logn}, nil
	default:
		return Analytic{}, fmt.Errorf("bandwidth: no Table 4 entry for family %v", f)
	}
}
