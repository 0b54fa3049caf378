// Package runspec defines the unified, serializable request type for the
// measurement and emulation engine. A Spec names everything a run depends
// on — the kind of measurement, the machine(s), the knobs, the seed — in
// one JSON-stable value, so a long-running server, the CLIs, and the cache
// layers all key off the same canonical string and an identical request is
// an identical computation everywhere.
//
// The netemu facade runs Specs through three entry points: netemu.Run (a
// measurement on a built machine), RunEmulation (a guest on a built host)
// and Execute (a spec that names its own machines). A Spec's result
// depends only on its canonical form, never on Shards (a pure throughput
// knob) or on who executes it.
package runspec

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/routing"
	"repro/internal/topology"
)

// Kind enumerates the run kinds the engine serves.
type Kind string

const (
	// KindBeta is the batch-fitted operational β measurement
	// (bandwidth.MeasureBeta): all-pairs batches at several load factors,
	// delivery time regressed against batch size.
	KindBeta Kind = "beta"
	// KindSteadyBeta estimates β by open-loop saturation search:
	// continuous injection with bisection on the rate until queues stay
	// bounded.
	KindSteadyBeta Kind = "steady-beta"
	// KindOpenLoop injects symmetric traffic at a fixed rate and reports
	// the steady-state behaviour, optionally with a statistical Snapshot
	// and optionally executing a fault spec mid-run.
	KindOpenLoop Kind = "open-loop"
	// KindFaultCurve produces a degradation curve: for each fault
	// fraction, a run near saturation loses that share of its wires
	// mid-flight and the pre/post delivery rates are compared.
	KindFaultCurve Kind = "fault-curve"
	// KindLambda measures the λ ingredients: diameter and sampled average
	// distance.
	KindLambda Kind = "lambda"
	// KindEmulate runs a guest-on-host emulation and reports the measured
	// slowdown (modes: direct, circuit, pipelined, mapped; direct with a
	// "nodes:K@tS" fault spec degrades mid-run).
	KindEmulate Kind = "emulate"
)

// IsMeasurement reports whether k is a measurement kind — one POST
// /v1/measure serves. Everything else in the vocabulary is an emulation
// and belongs to /v1/emulate. Unknown kinds are neither; Validate
// rejects them before routing matters.
func (k Kind) IsMeasurement() bool {
	switch k {
	case KindBeta, KindSteadyBeta, KindOpenLoop, KindFaultCurve, KindLambda:
		return true
	}
	return false
}

// Endpoint returns the netemud path that serves kind k. The HTTP
// handlers, the cluster dispatcher, and the netemuload generator all
// route through this one mapping so they can never disagree.
func (k Kind) Endpoint() string {
	if k.IsMeasurement() {
		return "/v1/measure"
	}
	return "/v1/emulate"
}

// Emulation modes for KindEmulate.
const (
	ModeDirect    = "direct"
	ModeCircuit   = "circuit"
	ModePipelined = "pipelined"
	ModeMapped    = "mapped"
)

// Adjacency representations a MachineSpec may request. Empty means
// explicit. The representation never changes a result — the routing
// simulator is bit-identical across the two — so Canonical strips it,
// exactly like Shards.
const (
	AdjExplicit = "explicit"
	AdjImplicit = "implicit"
)

// MachineSpec identifies a machine the way topology.Build does: family,
// dimension (for dimensioned families), approximate size, and the build
// seed (only consumed by the randomized families — Expander,
// Multibutterfly).
type MachineSpec struct {
	Family string `json:"family"`
	Dim    int    `json:"dim,omitempty"`
	Size   int    `json:"size"`
	Seed   int64  `json:"seed,omitempty"`
	// Adjacency selects the machine representation: "" or "explicit" for a
	// materialized multigraph, "implicit" for generator-backed adjacency
	// (topology.BuildImplicit; WeakHypercube, Mesh, and Torus only). The
	// implicit form exists so million-vertex machines fit in memory; only
	// the kinds whose measurements never need the whole edge list accept it
	// (beta under symmetric traffic, and open-loop runs).
	Adjacency string `json:"adjacency,omitempty"`
}

// Spec is the unified run request. The zero value of every field means
// "default"; Normalized fills kind-appropriate defaults so two Specs that
// describe the same run render identically. Shards is deliberately a pure
// throughput knob: the sharded simulator's determinism contract makes
// results bit-identical at every shard count, so Canonical strips it.
type Spec struct {
	Kind Kind `json:"kind"`

	// Machine identifies the machine for the measurement kinds when no
	// prebuilt *topology.Machine is supplied (the server path and
	// Execute). Run ignores it.
	Machine *MachineSpec `json:"machine,omitempty"`
	// Guest and Host identify the two machines of a KindEmulate run.
	Guest *MachineSpec `json:"guest,omitempty"`
	Host  *MachineSpec `json:"host,omitempty"`

	// Rate is the open-loop injection rate in messages/tick (KindOpenLoop;
	// required, > 0).
	Rate float64 `json:"rate,omitempty"`
	// Ticks is the run length for KindOpenLoop (default 400, >= 8),
	// KindSteadyBeta (default 300), and KindFaultCurve (default 400,
	// >= 30).
	Ticks int `json:"ticks,omitempty"`
	// TopK bounds the edge-utilization list of a Snapshot (default 10).
	TopK int `json:"topk,omitempty"`
	// Snapshot asks KindOpenLoop for the full statistical snapshot.
	Snapshot bool `json:"snapshot,omitempty"`
	// Iters is the bisection iteration count for KindSteadyBeta
	// (default 8).
	Iters int `json:"iters,omitempty"`

	// LoadFactors and Trials tune KindBeta (defaults {2,4,8} and 2,
	// mirroring bandwidth.MeasureOptions.Canonical).
	LoadFactors []int `json:"load_factors,omitempty"`
	Trials      int   `json:"trials,omitempty"`
	// Strategy selects the router for KindBeta: "greedy" (default) or
	// "valiant".
	Strategy string `json:"strategy,omitempty"`
	// Traffic selects the distribution for KindBeta: "symmetric"
	// (default) or "locality:<decay>" with decay in (0,1).
	Traffic string `json:"traffic,omitempty"`

	// Faults is a fault-spec clause list ("edges:0.05@t100,nodes:8@t500,
	// heal@t900") executed mid-run (KindOpenLoop), or a single
	// "nodes:K@tS" clause degrading a KindEmulate direct run.
	Faults string `json:"faults,omitempty"`
	// FaultFracs are the wire-fault fractions of a KindFaultCurve.
	FaultFracs []float64 `json:"fault_fracs,omitempty"`

	// Steps, Mode, and Duplicity tune KindEmulate (defaults 4, "direct",
	// and 1).
	Steps     int    `json:"steps,omitempty"`
	Mode      string `json:"mode,omitempty"`
	Duplicity int    `json:"duplicity,omitempty"`

	// Seed roots every random choice of the run.
	Seed int64 `json:"seed,omitempty"`
	// Shards is the simulator shard count (0 or 1 = serial). Results are
	// bit-identical at every value, so Canonical excludes it and cache
	// layers share entries across shard counts.
	Shards int `json:"shards,omitempty"`
}

// Normalized returns the spec with every kind-appropriate default filled
// in, so two Specs that describe the same run compare, render, and hash
// identically. It never fails; Validate reports what is wrong with a
// normalized spec.
func (s Spec) Normalized() Spec {
	switch s.Kind {
	case KindBeta:
		if len(s.LoadFactors) == 0 {
			s.LoadFactors = []int{2, 4, 8}
		}
		if s.Trials < 1 {
			s.Trials = 2
		}
		if s.Strategy == "" {
			s.Strategy = routing.Greedy.String()
		}
		if s.Traffic == "" {
			s.Traffic = "symmetric"
		}
	case KindSteadyBeta:
		if s.Ticks == 0 {
			s.Ticks = 300
		}
		if s.Iters < 1 {
			s.Iters = 8
		}
	case KindOpenLoop:
		if s.Ticks == 0 {
			s.Ticks = 400
		}
		if s.Snapshot && s.TopK <= 0 {
			s.TopK = 10
		}
	case KindFaultCurve:
		if s.Ticks == 0 {
			s.Ticks = 400
		}
	case KindEmulate:
		if s.Steps == 0 {
			s.Steps = 4
		}
		if s.Mode == "" {
			s.Mode = ModeDirect
		}
		if s.Duplicity < 1 {
			s.Duplicity = 1
		}
	}
	return s
}

// Validate checks a spec (after normalization) and returns a one-line
// error naming the offending field, mirroring the CLI flag contract.
func (s Spec) Validate() error {
	s = s.Normalized()
	switch s.Kind {
	case KindBeta:
		for _, lf := range s.LoadFactors {
			if lf < 1 {
				return fmt.Errorf("runspec: load_factors entries must be positive, got %d", lf)
			}
		}
		if _, err := ParseStrategy(s.Strategy); err != nil {
			return err
		}
		if _, _, err := parseTraffic(s.Traffic); err != nil {
			return err
		}
	case KindSteadyBeta:
		if s.Ticks < 8 {
			return fmt.Errorf("runspec: steady-beta ticks must be at least 8, got %d", s.Ticks)
		}
	case KindOpenLoop:
		if s.Rate <= 0 {
			return fmt.Errorf("runspec: open-loop rate must be positive, got %v", s.Rate)
		}
		if s.Ticks < 8 {
			return fmt.Errorf("runspec: open-loop ticks must be at least 8, got %d", s.Ticks)
		}
		if s.Faults != "" {
			if _, err := topology.ParseFaultSpec(s.Faults); err != nil {
				return err
			}
		}
	case KindFaultCurve:
		if len(s.FaultFracs) == 0 {
			return fmt.Errorf("runspec: fault-curve needs at least one entry in fault_fracs")
		}
		for _, f := range s.FaultFracs {
			if f < 0 || f > 1 {
				return fmt.Errorf("runspec: fault_fracs entries must be in [0, 1], got %v", f)
			}
		}
		if s.Ticks < 30 {
			return fmt.Errorf("runspec: fault-curve ticks must be at least 30, got %d", s.Ticks)
		}
	case KindLambda:
		// No knobs beyond the machine and seed.
	case KindEmulate:
		if s.Steps < 1 {
			return fmt.Errorf("runspec: steps must be at least 1, got %d", s.Steps)
		}
		switch s.Mode {
		case ModeDirect, ModeCircuit, ModePipelined, ModeMapped:
		default:
			return fmt.Errorf("runspec: unknown emulation mode %q", s.Mode)
		}
		if s.Faults != "" {
			if s.Mode != ModeDirect {
				return fmt.Errorf("runspec: faults only support the direct emulator, got mode %q", s.Mode)
			}
			plan, err := topology.ParseFaultSpec(s.Faults)
			if err != nil {
				return err
			}
			if len(plan) != 1 || plan[0].Kind != topology.NodeFaults {
				return fmt.Errorf(`runspec: emulation faults want a single "nodes:K@tS" clause, got %q`, s.Faults)
			}
			if plan[0].Tick < 1 || plan[0].Tick >= s.Steps {
				return fmt.Errorf("runspec: faults step %d must lie strictly inside the %d-step run", plan[0].Tick, s.Steps)
			}
		}
	case "":
		return fmt.Errorf("runspec: missing kind")
	default:
		return fmt.Errorf("runspec: unknown kind %q", s.Kind)
	}
	if s.Shards < 0 {
		return fmt.Errorf("runspec: shards must be >= 0 (0 = one per CPU), got %d", s.Shards)
	}
	for _, ms := range []struct {
		name string
		spec *MachineSpec
	}{{"machine", s.Machine}, {"guest", s.Guest}, {"host", s.Host}} {
		if ms.spec == nil {
			continue
		}
		if err := ms.spec.validate(ms.name); err != nil {
			return err
		}
	}
	// Guest/Host presence is Execute's concern: RunEmulation accepts
	// prebuilt machines with no machine specs in the spec at all.
	if s.Machine != nil && s.Machine.Adjacency == AdjImplicit {
		if err := s.checkImplicit(); err != nil {
			return err
		}
	}
	if s.Guest != nil && s.Guest.Adjacency == AdjImplicit || s.Host != nil && s.Host.Adjacency == AdjImplicit {
		return fmt.Errorf("runspec: emulation needs materialized graphs; guest and host cannot use adjacency %q", AdjImplicit)
	}
	return nil
}

// checkImplicit rejects what an implicit machine — generators, no edge
// list — cannot run: every kind but symmetric-traffic beta and open loop
// needs a materialized graph. Validate applies it to a spec's machine
// spec, run to the machine it is handed.
func (s Spec) checkImplicit() error {
	switch s.Kind {
	case KindOpenLoop:
	case KindBeta:
		if locality, _, err := parseTraffic(s.Traffic); err == nil && locality {
			return fmt.Errorf("runspec: locality traffic needs a materialized graph; adjacency %q only supports symmetric traffic", AdjImplicit)
		}
	default:
		return fmt.Errorf("runspec: kind %s needs a materialized graph; adjacency %q supports beta and open-loop only", s.Kind, AdjImplicit)
	}
	return nil
}

func (ms MachineSpec) validate(field string) error {
	f, err := topology.ParseFamily(ms.Family)
	if err != nil {
		return fmt.Errorf("runspec: %s: %w", field, err)
	}
	if ms.Size < 1 {
		return fmt.Errorf("runspec: %s size must be positive, got %d", field, ms.Size)
	}
	if f.Dimensioned() && ms.Dim < 1 {
		return fmt.Errorf("runspec: %s family %s needs dim >= 1, got %d", field, ms.Family, ms.Dim)
	}
	if ms.Dim < 0 {
		return fmt.Errorf("runspec: %s dim must be non-negative, got %d", field, ms.Dim)
	}
	switch ms.Adjacency {
	case "", AdjExplicit:
	case AdjImplicit:
		if !topology.ImplicitSupported(f) {
			return fmt.Errorf("runspec: %s family %s has no implicit generator (want WeakHypercube, Mesh, or Torus)", field, ms.Family)
		}
	default:
		return fmt.Errorf("runspec: %s adjacency must be %q or %q, got %q", field, AdjExplicit, AdjImplicit, ms.Adjacency)
	}
	return nil
}

// canonicalVersion names the canonical-key schema. Bump it whenever the
// Spec field set or its normalization changes meaning, so keys written by
// an older build can never collide with the new semantics.
const canonicalVersion = "v1"

// CanonicalPrefix is the version prefix every Canonical() string starts
// with — the discovery endpoint (/v1/meta) advertises it so clients can
// detect a key-schema change without parsing keys.
const CanonicalPrefix = "runspec/" + canonicalVersion + "/"

// stripRepresentation clears the fields that select how a run executes
// rather than what it computes: the shard count and the machines'
// adjacency representations. Machine-spec pointers are copied before
// mutation so the caller's spec is untouched.
func stripRepresentation(n Spec) Spec {
	n.Shards = 0
	for _, msp := range []**MachineSpec{&n.Machine, &n.Guest, &n.Host} {
		if ms := *msp; ms != nil && ms.Adjacency != "" {
			c := *ms
			c.Adjacency = ""
			*msp = &c
		}
	}
	return n
}

// Canonical returns the stable identity string of the run: a version
// prefix plus the compact JSON of the normalized spec with Shards and
// adjacency representations stripped. Two Specs describing the same
// computation — defaults spelled out or left zero, any shard count,
// either machine representation — canonicalize identically. The server's
// flight table and result store key off this one string, and the
// experiment orchestrator names each β job's RNG stream by it.
func (s Spec) Canonical() string {
	n := stripRepresentation(s.Normalized())
	b, err := json.Marshal(n)
	if err != nil {
		// Spec is a tree of plain values; Marshal cannot fail on it.
		panic(fmt.Sprintf("runspec: canonical marshal: %v", err))
	}
	return "runspec/" + canonicalVersion + "/" + string(b)
}

// ParseStrategy resolves a routing strategy by its display name.
func ParseStrategy(name string) (routing.Strategy, error) {
	switch name {
	case "", routing.Greedy.String():
		return routing.Greedy, nil
	case routing.Valiant.String():
		return routing.Valiant, nil
	default:
		return 0, fmt.Errorf("runspec: unknown strategy %q (want greedy or valiant)", name)
	}
}

// parseTraffic resolves a traffic spec: "symmetric" (or empty) selects the
// all-pairs distribution; "locality:<decay>" selects distance-decaying
// traffic with decay in (0,1).
func parseTraffic(spec string) (locality bool, decay float64, err error) {
	switch {
	case spec == "" || spec == "symmetric":
		return false, 0, nil
	case strings.HasPrefix(spec, "locality:"):
		d, perr := strconv.ParseFloat(strings.TrimPrefix(spec, "locality:"), 64)
		if perr != nil || d <= 0 || d >= 1 {
			return false, 0, fmt.Errorf("runspec: traffic %q wants locality:<decay> with decay in (0,1)", spec)
		}
		return true, d, nil
	default:
		return false, 0, fmt.Errorf("runspec: unknown traffic %q (want symmetric or locality:<decay>)", spec)
	}
}
