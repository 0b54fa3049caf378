package runspec

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/bandwidth"
	"repro/internal/emulation"
	"repro/internal/mapping"
	"repro/internal/measure"
	"repro/internal/profiling"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Result is the unified run outcome. Only the fields of the executed kind
// are populated; the rest stay at their zero values and are omitted from
// JSON. The JSON form is the server's wire format and round-trips through
// the result store byte-identically.
type Result struct {
	Kind Kind `json:"kind"`
	// Spec echoes the canonical form of the request that produced the
	// result (normalized, Shards stripped), so a response is
	// self-describing.
	Spec    Spec   `json:"spec"`
	Machine string `json:"machine,omitempty"`

	// Beta carries KindBeta's and KindSteadyBeta's estimate.
	Beta       float64         `json:"beta,omitempty"`
	Dist       string          `json:"dist,omitempty"`
	RateByLoad map[int]float64 `json:"rate_by_load,omitempty"`

	// Diameter and AvgDist carry KindLambda's ingredients.
	Diameter int     `json:"diameter,omitempty"`
	AvgDist  float64 `json:"avg_dist,omitempty"`

	OpenLoop   *routing.OpenLoopResult `json:"open_loop,omitempty"`
	Snapshot   *routing.Snapshot       `json:"snapshot,omitempty"`
	FaultCurve []bandwidth.FaultPoint  `json:"fault_curve,omitempty"`
	Emulation  *EmulationOutcome       `json:"emulation,omitempty"`

	// Measurement is the full in-process KindBeta measurement, including
	// the (non-serializable) machine. Absent on results decoded from the
	// wire or the result store.
	Measurement *bandwidth.Measurement `json:"-"`
	// EmulationResult and DegradedResult are the full in-process
	// KindEmulate outcomes, for callers (the emusim CLI) that print
	// machine details. Absent on decoded results.
	EmulationResult *emulation.Result         `json:"-"`
	DegradedResult  *emulation.DegradedResult `json:"-"`
}

// EmulationOutcome is the serializable summary of a KindEmulate run.
type EmulationOutcome struct {
	Guest        string  `json:"guest"`
	Host         string  `json:"host"`
	GuestSteps   int     `json:"guest_steps"`
	HostTicks    int     `json:"host_ticks"`
	ComputeTicks int     `json:"compute_ticks"`
	RouteTicks   int     `json:"route_ticks"`
	Slowdown     float64 `json:"slowdown"`
	Inefficiency float64 `json:"inefficiency"`
	LoadBound    float64 `json:"load_bound"`

	Degraded *DegradedOutcome `json:"degraded,omitempty"`
}

// DegradedOutcome is the serializable summary of a degraded (mid-run host
// failure) emulation.
type DegradedOutcome struct {
	FailStep        int     `json:"fail_step"`
	DeadHosts       []int   `json:"dead_hosts"`
	LiveHosts       int     `json:"live_hosts"`
	Remapped        int     `json:"remapped"`
	PreSlowdown     float64 `json:"pre_slowdown"`
	PostSlowdown    float64 `json:"post_slowdown"`
	SlowdownPenalty float64 `json:"slowdown_penalty"`
}

// canonicalEcho is the spec a Result carries: normalized, with Shards and
// adjacency representations stripped — the same value Canonical serializes.
func canonicalEcho(s Spec) Spec {
	return stripRepresentation(s.Normalized())
}

// Run executes a measurement spec against a prebuilt machine, on fresh
// engines. KindEmulate needs two machines; use RunEmulation or Execute.
func Run(m *topology.Machine, s Spec) (Result, error) {
	s = s.Normalized()
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	if s.Kind == KindEmulate {
		return Result{}, fmt.Errorf("runspec: emulate needs guest and host machines; use RunEmulation or Execute")
	}
	return run(m, s, func(strategy routing.Strategy) (*routing.Engine, error) {
		return routing.NewEngine(m, strategy), nil
	})
}

// run executes a validated measurement spec on m. Every kind takes its
// engine from engine — fresh for Run, shared for runCached — and never
// mutates it: fault masks live on the runs' sims. The rng derivation per
// kind lives only here, which is what makes cached results byte-identical
// to cold ones.
func run(m *topology.Machine, s Spec, engine func(routing.Strategy) (*routing.Engine, error)) (Result, error) {
	if m.Graph == nil {
		if err := s.checkImplicit(); err != nil {
			return Result{}, err
		}
	}
	res := Result{Kind: s.Kind, Spec: canonicalEcho(s), Machine: m.Name}
	rng := rand.New(rand.NewSource(s.Seed))
	switch s.Kind {
	case KindBeta:
		strat, _ := ParseStrategy(s.Strategy)
		dist, err := buildTraffic(m, s.Traffic)
		if err != nil {
			return Result{}, err
		}
		eng, err := engine(strat)
		if err != nil {
			return Result{}, err
		}
		opts := bandwidth.MeasureOptions{
			LoadFactors: s.LoadFactors,
			Trials:      s.Trials,
			Strategy:    strat,
			Shards:      s.Shards,
		}
		meas := bandwidth.MeasureBeta(eng, dist, opts, rng)
		res.Beta = meas.Beta
		res.Dist = meas.Dist
		res.RateByLoad = meas.RateByLoad
		res.Measurement = &meas
	case KindSteadyBeta:
		eng, err := engine(routing.Greedy)
		if err != nil {
			return Result{}, err
		}
		res.Beta = bandwidth.SteadyStateBeta(eng, s.Ticks, s.Iters, s.Shards, rng)
	case KindOpenLoop:
		eng, err := engine(routing.Greedy)
		if err != nil {
			return Result{}, err
		}
		o := routing.OpenLoopOptions{Rate: s.Rate, Ticks: s.Ticks, Shards: s.Shards, Snapshot: s.Snapshot, TopK: s.TopK}
		if s.Faults != "" {
			o.Faults = topology.MustParseFaultSpec(s.Faults).Materialize(m, rng)
		}
		ol, snap := eng.OpenLoop(traffic.NewSymmetric(m.N()), rng, o)
		res.OpenLoop, res.Snapshot = &ol, snap
	case KindFaultCurve:
		eng, err := engine(routing.Greedy)
		if err != nil {
			return Result{}, err
		}
		res.FaultCurve = bandwidth.MeasureBetaUnderFaults(eng, s.FaultFracs, s.Ticks, s.Shards, measure.NewSeedPlan(s.Seed))
	case KindLambda:
		res.Diameter, res.AvgDist = bandwidth.MeasureLambda(m, rng)
	}
	return res, nil
}

// RunEmulation executes a KindEmulate spec against prebuilt guest and host
// machines, with the historical per-mode RNG derivations.
func RunEmulation(guest, host *topology.Machine, s Spec) (Result, error) {
	s = s.Normalized()
	if s.Kind != KindEmulate {
		return Result{}, fmt.Errorf("runspec: RunEmulation wants kind %q, got %q", KindEmulate, s.Kind)
	}
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	if guest.Graph == nil || host.Graph == nil {
		return Result{}, fmt.Errorf("runspec: emulation needs materialized graphs; %s on %s is implicit", guest.Name, host.Name)
	}
	res := Result{Kind: s.Kind, Spec: canonicalEcho(s)}
	var er emulation.Result
	switch {
	case s.Faults != "":
		plan := topology.MustParseFaultSpec(s.Faults)
		deg := emulation.DirectDegraded(guest, host, s.Steps, plan[0].Tick, plan[0].Count, rand.New(rand.NewSource(s.Seed)))
		er = deg.Result
		res.DegradedResult = &deg
	case s.Mode == ModeCircuit:
		er = emulation.Circuit(guest, host, s.Steps, s.Duplicity, rand.New(rand.NewSource(s.Seed)))
	case s.Mode == ModePipelined:
		er = emulation.DirectPipelined(guest, host, s.Steps, nil, rand.New(rand.NewSource(s.Seed)))
	case s.Mode == ModeMapped:
		assign := mapping.RecursiveBisection(guest, host, rand.New(rand.NewSource(s.Seed)))
		er = emulation.Direct(guest, host, s.Steps, assign, rand.New(rand.NewSource(s.Seed)))
	default:
		er = emulation.Direct(guest, host, s.Steps, nil, rand.New(rand.NewSource(s.Seed)))
	}
	res.EmulationResult = &er
	res.Emulation = &EmulationOutcome{
		Guest:        guest.Name,
		Host:         host.Name,
		GuestSteps:   er.GuestSteps,
		HostTicks:    er.HostTicks,
		ComputeTicks: er.ComputeTicks,
		RouteTicks:   er.RouteTicks,
		Slowdown:     er.Slowdown,
		Inefficiency: er.Inefficiency,
		LoadBound:    er.LoadBound,
	}
	if deg := res.DegradedResult; deg != nil {
		res.Emulation.Degraded = &DegradedOutcome{
			FailStep:        deg.FailStep,
			DeadHosts:       deg.DeadHosts,
			LiveHosts:       deg.LiveHosts,
			Remapped:        deg.Remapped,
			PreSlowdown:     deg.PreSlowdown,
			PostSlowdown:    deg.PostSlowdown,
			SlowdownPenalty: deg.SlowdownPenalty,
		}
	}
	return res, nil
}

// BuildMachine constructs the machine a MachineSpec identifies, exactly as
// the CLIs always have: topology.Build on a fresh rng rooted at the spec's
// build seed.
func BuildMachine(ms MachineSpec) (*topology.Machine, error) {
	if err := ms.validate("machine"); err != nil {
		return nil, err
	}
	f, _ := topology.ParseFamily(ms.Family)
	if ms.Adjacency == AdjImplicit {
		return topology.BuildImplicit(f, ms.Dim, ms.Size)
	}
	return topology.Build(f, ms.Dim, ms.Size, rand.New(rand.NewSource(ms.Seed))), nil
}

// Execute is the fully serializable entry point: it builds the machine(s)
// named by the spec and dispatches to Run or RunEmulation. This is what
// the netemud server and the CLIs' spec modes call, which is what makes a
// POST /v1/measure response byte-identical to the equivalent CLI output.
func Execute(s Spec) (Result, error) {
	s = s.Normalized()
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	var res Result
	var err error
	labeled(s, func() { res, err = execute(s) })
	return res, err
}

func execute(s Spec) (Result, error) {
	if s.Kind == KindEmulate {
		if s.Guest == nil || s.Host == nil {
			return Result{}, fmt.Errorf("runspec: emulate needs both guest and host machine specs")
		}
		guest, err := BuildMachine(*s.Guest)
		if err != nil {
			return Result{}, fmt.Errorf("runspec: guest: %w", err)
		}
		host, err := BuildMachine(*s.Host)
		if err != nil {
			return Result{}, fmt.Errorf("runspec: host: %w", err)
		}
		return RunEmulation(guest, host, s)
	}
	if s.Machine == nil {
		return Result{}, fmt.Errorf("runspec: kind %s needs a machine spec", s.Kind)
	}
	m, err := BuildMachine(*s.Machine)
	if err != nil {
		return Result{}, err
	}
	return Run(m, s)
}

// labeled runs fn under pprof labels naming the spec's kind and machine
// family, so CPU profiles attribute simulation time per workload.
func labeled(s Spec, fn func()) {
	family := ""
	switch {
	case s.Machine != nil:
		family = s.Machine.Family
	case s.Guest != nil:
		family = s.Guest.Family
	}
	profiling.Labeled(context.Background(), string(s.Kind), family, fn)
}

// buildTraffic resolves a Spec's traffic field against a machine.
func buildTraffic(m *topology.Machine, spec string) (traffic.Distribution, error) {
	locality, decay, err := parseTraffic(spec)
	if err != nil {
		return nil, err
	}
	if !locality {
		return traffic.NewSymmetric(m.N()), nil
	}
	if m.N() != m.Graph.N() {
		return nil, fmt.Errorf("runspec: locality traffic needs a pure processor machine, %s has switches", m.Name)
	}
	return traffic.NewLocality(m.Graph, decay), nil
}
