package runspec

import "fmt"

// SweepSpec is the batch form of a measurement request: one base Spec plus
// a vector of knob points, each point a sparse override of the base. The
// merged per-point specs normalize, validate, and canonicalize exactly like
// standalone Specs — a sweep is pure orchestration, never a new semantics —
// so every point shares the memo and result-store entries of the
// equivalent individual request, and a sweep response is byte-identical to the
// concatenation of the individual responses.
//
// The payoff is execution affinity: all points of a typical sweep name the
// same machine, so executing them over one ArtifactCache (and, in cluster
// mode, dispatching the whole sweep by the machine key to one worker)
// reuses the built machine, the engine's distance fields, and the pooled
// sims across every point.
type SweepSpec struct {
	Base   Spec         `json:"base"`
	Points []SweepPoint `json:"points"`
}

// SweepPoint overrides a subset of the base spec's knobs. Pointer fields
// distinguish "leave the base value" (nil) from "set to the zero value";
// slice fields override when non-empty. Machine replaces the whole machine
// spec, which is how multi-size sweeps over one family are spelled.
type SweepPoint struct {
	Machine     *MachineSpec `json:"machine,omitempty"`
	Rate        *float64     `json:"rate,omitempty"`
	Ticks       *int         `json:"ticks,omitempty"`
	TopK        *int         `json:"topk,omitempty"`
	Snapshot    *bool        `json:"snapshot,omitempty"`
	Iters       *int         `json:"iters,omitempty"`
	LoadFactors []int        `json:"load_factors,omitempty"`
	Trials      *int         `json:"trials,omitempty"`
	Strategy    *string      `json:"strategy,omitempty"`
	Traffic     *string      `json:"traffic,omitempty"`
	Faults      *string      `json:"faults,omitempty"`
	FaultFracs  []float64    `json:"fault_fracs,omitempty"`
	Seed        *int64       `json:"seed,omitempty"`
	Shards      *int         `json:"shards,omitempty"`
}

// MaxSweepPoints bounds one sweep request, so a single POST /v1/sweep
// cannot queue unbounded work behind the server's admission control.
const MaxSweepPoints = 512

// apply merges the point's overrides into a copy of the base spec.
func (p SweepPoint) apply(s Spec) Spec {
	if p.Machine != nil {
		ms := *p.Machine
		s.Machine = &ms
	}
	if p.Rate != nil {
		s.Rate = *p.Rate
	}
	if p.Ticks != nil {
		s.Ticks = *p.Ticks
	}
	if p.TopK != nil {
		s.TopK = *p.TopK
	}
	if p.Snapshot != nil {
		s.Snapshot = *p.Snapshot
	}
	if p.Iters != nil {
		s.Iters = *p.Iters
	}
	if len(p.LoadFactors) > 0 {
		s.LoadFactors = p.LoadFactors
	}
	if p.Trials != nil {
		s.Trials = *p.Trials
	}
	if p.Strategy != nil {
		s.Strategy = *p.Strategy
	}
	if p.Traffic != nil {
		s.Traffic = *p.Traffic
	}
	if p.Faults != nil {
		s.Faults = *p.Faults
	}
	if len(p.FaultFracs) > 0 {
		s.FaultFracs = p.FaultFracs
	}
	if p.Seed != nil {
		s.Seed = *p.Seed
	}
	if p.Shards != nil {
		s.Shards = *p.Shards
	}
	return s
}

// Specs merges every point into the base and returns the normalized
// per-point specs, validating the whole sweep up front so execution never
// fails midway on a malformed point. The base kind must be a measurement —
// emulation clones and degrades its machines, so there is nothing for a
// sweep to amortize — and every merged point must name a machine.
func (sw SweepSpec) Specs() ([]Spec, error) {
	if !sw.Base.Kind.IsMeasurement() {
		return nil, fmt.Errorf("runspec: sweep base kind must be a measurement, got %q", sw.Base.Kind)
	}
	if len(sw.Points) == 0 {
		return nil, fmt.Errorf("runspec: sweep needs at least one point")
	}
	if len(sw.Points) > MaxSweepPoints {
		return nil, fmt.Errorf("runspec: sweep of %d points exceeds the %d-point limit", len(sw.Points), MaxSweepPoints)
	}
	out := make([]Spec, 0, len(sw.Points))
	for i, p := range sw.Points {
		s := p.apply(sw.Base).Normalized()
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("runspec: sweep point %d: %w", i, err)
		}
		if s.Machine == nil {
			return nil, fmt.Errorf("runspec: sweep point %d names no machine", i)
		}
		out = append(out, s)
	}
	return out, nil
}

// ExecuteSweep runs every point of the sweep, in order, over the shared
// artifact cache. Each point's Result is exactly what ExecuteCached (and
// therefore Execute) returns for the merged spec. The first failing point
// aborts the sweep, returning the results accumulated before it.
func ExecuteSweep(c *ArtifactCache, sw SweepSpec) ([]Result, error) {
	specs, err := sw.Specs()
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, len(specs))
	for i, s := range specs {
		r, err := ExecuteCached(c, s)
		if err != nil {
			return out, fmt.Errorf("runspec: sweep point %d: %w", i, err)
		}
		out = append(out, r)
	}
	return out, nil
}
