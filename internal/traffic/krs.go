package traffic

import (
	"fmt"

	"repro/internal/multigraph"
)

// The paper's K_{r,s} classes: a graph is in K_{r,s} iff it has r vertices,
// Θ(r²s) simple edges, and no vertex pair carries more than s edges. The
// witness traffic graphs γ and ξ in Lemmas 9 and 11 are drawn from these
// classes; KrsMembership checks membership with an explicit density
// constant.

// KrsMembership reports whether g qualifies as a member of K_{r,s} with
// density constant at least minDensity: g must have r = g.N() vertices,
// at least minDensity * r² * s simple edges, and no pair multiplicity
// exceeding s. The paper's Θ(r²s) hides a constant; minDensity makes it
// explicit (the canonical member has density ~1/2).
func KrsMembership(g *multigraph.Multigraph, s int64, minDensity float64) error {
	if s < 1 {
		return fmt.Errorf("traffic: K_{r,s} needs s >= 1, got %d", s)
	}
	r := g.N()
	if r < 2 {
		return fmt.Errorf("traffic: K_{r,s} needs r >= 2, got %d", r)
	}
	// Density is measured against r(r-1)s, so the complete graph on r
	// vertices with every pair at multiplicity s has density exactly 1/2.
	need := minDensity * float64(r) * float64(r-1) * float64(s)
	if float64(g.E()) < need {
		return fmt.Errorf("traffic: only %d edges, need >= %.0f for density %.3f in K_{%d,%d}",
			g.E(), need, minDensity, r, s)
	}
	for _, e := range g.Edges() {
		if e.Mult > s {
			return fmt.Errorf("traffic: pair (%d,%d) has multiplicity %d > s=%d", e.U, e.V, e.Mult, s)
		}
	}
	return nil
}
