// Package measure provides deterministic seed derivation for measurement
// harnesses. A SeedPlan deterministically derives independent RNG streams
// from a base seed and a tuple of integer keys (family, size index, load
// factor, trial, ...), so sequential and parallel sweeps that agree on the
// keys consume bit-identical randomness regardless of execution order or
// scheduling.
package measure

import "math/rand"

// SeedPlan derives independent RNG streams from a base seed via
// splitmix64-style mixing. The zero value is a valid plan (base seed 0).
//
// Determinism contract:
//   - RNG(k1, ..., kn) depends only on the base seed and the key tuple —
//     never on call order, goroutine scheduling, or other streams drawn
//     from the plan.
//   - Derivation is hierarchical: p.Fork(a).RNG(b) == p.RNG(a, b), so a
//     worker handed p.Fork(i) sees exactly the streams the sequential
//     driver would have used for index i.
//   - Distinct key tuples yield independent streams (a full splitmix64
//     finalizer between keys, so low-entropy keys like 0,1,2 still land in
//     well-separated states).
type SeedPlan struct {
	state uint64
}

// NewSeedPlan returns the plan rooted at seed.
func NewSeedPlan(seed int64) SeedPlan {
	return SeedPlan{state: Mix64(uint64(seed))}
}

// Fork derives a sub-plan for the given keys.
func (p SeedPlan) Fork(keys ...uint64) SeedPlan {
	st := p.state
	for _, k := range keys {
		st = Mix64(st + 0x9e3779b97f4a7c15 + Mix64(k))
	}
	return SeedPlan{state: st}
}

// RNG returns a fresh rand.Rand on the stream addressed by the keys.
func (p SeedPlan) RNG(keys ...uint64) *rand.Rand {
	return rand.New(rand.NewSource(p.Fork(keys...).Seed()))
}

// Seed returns the plan's state as an int64 rand seed.
func (p SeedPlan) Seed() int64 { return int64(p.state) }

// KeyString folds a textual job identity into a stream key, so callers can
// address streams by stable human-readable names ("table4/Mesh^2/64")
// instead of hand-assigned integers. FNV-1a over the bytes; the Fork side
// applies the splitmix64 finalizer on top, so short and similar strings
// still land in well-separated states.
func KeyString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Mix64 is the splitmix64 finalizer: a bijective avalanche on 64 bits.
// The simulator's per-vertex streams and the chaos injector's decisions
// use it too; it is small enough that the compiler inlines every call.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
