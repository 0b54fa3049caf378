package netemu

import (
	"repro/internal/bandwidth"
	"repro/internal/emulation"
	"repro/internal/topology"
)

// Dynamic faults: machines that lose wires and processors mid-run. A
// FaultPlan says *when* and *how much* fails ("edges:0.05@t100"); a
// FaultSchedule is the plan materialized against one machine with one rng
// (exactly which wires, which processors). The routing simulator executes
// schedules while packets are in flight, rerouting around the damage and
// dropping what cannot be saved; the measurement and emulation layers turn
// that into degradation curves and slowdown penalties.

// FaultKind enumerates the clause kinds of a FaultPlan.
type FaultKind = topology.FaultKind

// The fault clause kinds: a fraction of live wires fails, a count of live
// processors fails, or everything heals.
const (
	EdgeFaults = topology.EdgeFaults
	NodeFaults = topology.NodeFaults
	Heal       = topology.Heal
)

// FaultClause is one clause of a fault plan: what fails (or heals) at which
// tick.
type FaultClause = topology.FaultClause

// FaultPlan is a machine-independent fault scenario, a tick-ordered list of
// clauses. Materialize turns it into a FaultSchedule for a machine.
type FaultPlan = topology.FaultPlan

// FaultSchedule is a materialized fault plan: concrete wires and processors
// failing (and healing) at concrete ticks on one machine.
type FaultSchedule = topology.FaultSchedule

// FaultEvent is one tick's worth of a FaultSchedule.
type FaultEvent = topology.FaultEvent

// ParseFaultSpec parses a fault scenario like
//
//	"edges:0.05@t100,nodes:8@t500,heal@t900"
//
// into a FaultPlan: at tick 100 each live wire fails with probability 0.05,
// at tick 500 eight live processors fail, at tick 900 everything heals.
func ParseFaultSpec(spec string) (FaultPlan, error) { return topology.ParseFaultSpec(spec) }

// MustParseFaultSpec is ParseFaultSpec panicking on error, for specs fixed
// at compile time.
func MustParseFaultSpec(spec string) FaultPlan { return topology.MustParseFaultSpec(spec) }

// FaultPoint is one sample of a degradation curve: delivery rate before and
// after a wire-fault event, plus the delivered/dropped/retried breakdown.
type FaultPoint = bandwidth.FaultPoint

// DegradedEmulation reports an emulation that lost host processors mid-run:
// whole-run totals plus the pre/post slowdown split, the dead-host set, and
// how many guest processors were remapped.
type DegradedEmulation = emulation.DegradedResult
