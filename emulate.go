package netemu

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/emulation"
	"repro/internal/mapping"
)

// EmulationResult reports a measured emulation: host ticks split into
// compute and communication, the achieved slowdown, the work inefficiency,
// and the load bound |G|/|H|.
type EmulationResult = emulation.Result

// BoundCheck compares a measured emulation against the theorem's numeric
// prediction.
type BoundCheck = core.Check

// VerifyBound emulates guest on host and reports the measured slowdown
// against the theorem's lower bound max(|G|/|H|, β(G)/β(H)). The theorem
// guarantees Ratio (measured/predicted) stays bounded away from zero.
func VerifyBound(guest, host *Machine, steps int, seed int64) (BoundCheck, error) {
	return core.VerifyEmulation(guest, host, steps, rand.New(rand.NewSource(seed)))
}

// CrossoverCurvePoint is one Figure 1 sample: the two slowdown bounds at a
// host size.
type CrossoverCurvePoint = core.CurvePoint

// MappedContraction computes a locality-preserving guest-to-host
// assignment by recursive coordinated bisection (the Berman–Snyder mapping
// problem), for guest/host pairs without common coordinate structure. Use
// with EmulateWithAssignment.
func MappedContraction(guest, host *Machine, seed int64) []int {
	return mapping.RecursiveBisection(guest, host, rand.New(rand.NewSource(seed)))
}

// EmulateWithAssignment runs the direct emulation under an explicit
// guest-to-host assignment (from MappedContraction or custom).
func EmulateWithAssignment(guest, host *Machine, steps int, assign []int, seed int64) EmulationResult {
	return emulation.Direct(guest, host, steps, assign, rand.New(rand.NewSource(seed)))
}
