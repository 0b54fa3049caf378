package netemu

import "repro/internal/runspec"

// The unified run API. A RunSpec is the one canonical, serializable
// request type for every measurement and emulation the engine performs:
// the netemud server, the CLIs, and the cache layers all key off its
// Canonical() string, so an identical request is an identical (and
// dedupable) computation everywhere. Run, RunEmulation and Execute are
// the only ways to execute one; what used to be separate sharded,
// snapshot and faulted variants are spec fields.

// RunKind selects what a RunSpec measures or emulates.
type RunKind = runspec.Kind

// The run kinds: batch-fitted β, open-loop saturation β, fixed-rate open
// loop (optionally with snapshot and mid-run faults), wire-fault
// degradation curves, λ ingredients, and guest-on-host emulation.
const (
	RunBeta       = runspec.KindBeta
	RunSteadyBeta = runspec.KindSteadyBeta
	RunOpenLoop   = runspec.KindOpenLoop
	RunFaultCurve = runspec.KindFaultCurve
	RunLambda     = runspec.KindLambda
	RunEmulate    = runspec.KindEmulate
)

// The emulation modes of a RunEmulate spec.
const (
	RunModeDirect    = runspec.ModeDirect
	RunModeCircuit   = runspec.ModeCircuit
	RunModePipelined = runspec.ModePipelined
	RunModeMapped    = runspec.ModeMapped
)

// RunSpec is the unified, serializable run request: kind, machine
// identity, knobs, fault spec, traffic, and seed. The zero value of every
// field means "default"; Canonical() is the stable cache/coalescing key.
// Shards is a pure throughput knob excluded from Canonical: results are
// bit-identical at every shard count.
type RunSpec = runspec.Spec

// RunMachineSpec identifies a machine the way topology.Build does
// (family, dim, approximate size, build seed), for specs that must carry
// their machines over the wire.
type RunMachineSpec = runspec.MachineSpec

// RunResult is the unified run outcome; only the executed kind's fields
// are populated. Its JSON form is the netemud wire format.
type RunResult = runspec.Result

// EmulationOutcome is the serializable summary of a RunEmulate result.
type EmulationOutcome = runspec.EmulationOutcome

// Run executes a measurement spec against a prebuilt machine. A kind the
// machine cannot run — anything but symmetric beta and open loop on an
// implicit machine — is an error.
func Run(m *Machine, spec RunSpec) (RunResult, error) { return runspec.Run(m, spec) }

// RunEmulation executes a RunEmulate spec against prebuilt guest and host
// machines.
func RunEmulation(guest, host *Machine, spec RunSpec) (RunResult, error) {
	return runspec.RunEmulation(guest, host, spec)
}

// Execute builds the machine(s) the spec names and runs it — the fully
// serializable entry point the netemud server and the CLIs share.
func Execute(spec RunSpec) (RunResult, error) { return runspec.Execute(spec) }

// BuildMachineSpec constructs the machine a RunMachineSpec identifies.
func BuildMachineSpec(ms RunMachineSpec) (*Machine, error) { return runspec.BuildMachine(ms) }
