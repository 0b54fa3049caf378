package core

import (
	"fmt"
	"math"

	"repro/internal/growth"
	"repro/internal/topology"
)

// Baseline lower bounds from the prior work the paper compares against
// (§1.2, Koch et al. STOC'89). The paper's claim is that the bandwidth
// method recovers these results "by merely plugging in well-known bounds on
// bandwidth" — these functions make the comparison executable.

// BaselineKind labels the argument style of a prior-work bound.
type BaselineKind int

const (
	// DistanceBased: slowdown from diameter mismatch (Koch et al. for
	// trees on meshes).
	DistanceBased BaselineKind = iota
	// CongestionBased: slowdown from cut/congestion mismatch (Koch et al.
	// for meshes/butterflies on lower-dimensional meshes).
	CongestionBased
)

func (k BaselineKind) String() string {
	switch k {
	case DistanceBased:
		return "distance-based"
	case CongestionBased:
		return "congestion-based"
	default:
		return fmt.Sprintf("BaselineKind(%d)", int(k))
	}
}

// Baseline is one prior-work lower bound on slowdown, as a function of the
// guest size n (host at its maximum useful size) or of the host size m,
// depending on the statement.
type Baseline struct {
	Kind      BaselineKind
	Guest     Spec
	Host      Spec
	Statement string
	// Slowdown evaluates the prior bound at guest size n and host size m.
	Slowdown func(n, m float64) float64
}

// KochTreeOnMesh returns the distance-based bound of Koch et al.:
// emulating a complete binary tree on a k-dimensional mesh has slowdown
// S >= Ω((|G| / lg^k |G|)^{1/(k+1)}).
func KochTreeOnMesh(k int) Baseline {
	if k < 1 {
		panic("core: mesh dimension must be >= 1")
	}
	return Baseline{
		Kind:  DistanceBased,
		Guest: Spec{Family: topology.TreeFamily},
		Host:  Spec{Family: topology.MeshFamily, Dim: k},
		Statement: fmt.Sprintf(
			"S >= Ω((|G|/lg^%d |G|)^{1/%d}) for tree guests on %d-dimensional meshes", k, k+1, k),
		Slowdown: func(n, _ float64) float64 {
			lg := math.Log2(math.Max(n, 2))
			return math.Pow(n/math.Pow(lg, float64(k)), 1/float64(k+1))
		},
	}
}

// KochMeshOnMesh returns the congestion-based bound of Koch et al.:
// emulating a k-dimensional mesh on a j-dimensional mesh (j < k) has
// slowdown S >= Ω(|H|^{(k-j)/(jk)}).
func KochMeshOnMesh(k, j int) Baseline {
	if j < 1 || k <= j {
		panic("core: need k > j >= 1")
	}
	exp := float64(k-j) / float64(j*k)
	return Baseline{
		Kind:  CongestionBased,
		Guest: Spec{Family: topology.MeshFamily, Dim: k},
		Host:  Spec{Family: topology.MeshFamily, Dim: j},
		Statement: fmt.Sprintf(
			"S >= Ω(|H|^{(%d-%d)/(%d*%d)}) for mesh^%d guests on mesh^%d hosts", k, j, j, k, k, j),
		Slowdown: func(_, m float64) float64 {
			return math.Pow(m, exp)
		},
	}
}

// BandwidthMeshOnMesh is this paper's bound for the same pair, for
// comparison: S_c = β_G(n)/β_H(m) = n^{(k-1)/k} / m^{(j-1)/j}.
func BandwidthMeshOnMesh(k, j int) Baseline {
	if j < 1 || k <= j {
		panic("core: need k > j >= 1")
	}
	return Baseline{
		Kind:  CongestionBased,
		Guest: Spec{Family: topology.MeshFamily, Dim: k},
		Host:  Spec{Family: topology.MeshFamily, Dim: j},
		Statement: fmt.Sprintf(
			"S >= Ω(n^{(%d-1)/%d} / m^{(%d-1)/%d}) — the bandwidth method", k, k, j, j),
		Slowdown: func(n, m float64) float64 {
			gb := growth.Poly(int64(k-1), int64(k))
			hb := growth.Poly(int64(j-1), int64(j))
			return gb.Eval(n) / hb.Eval(m)
		},
	}
}
