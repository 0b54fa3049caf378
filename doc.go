// Package netemu reproduces "Bandwidth-Based Lower Bounds on Slowdown for
// Efficient Emulations of Fixed-Connection Networks" (Kruskal & Rappoport,
// SPAA 1994) as a runnable system.
//
// The paper proves that any efficient (work-preserving) emulation of a
// guest network machine G on a host H has communication-induced slowdown
// at least Ω(β(G)/β(H)), where β(M) is M's bandwidth: the expected
// aggregate message delivery rate under all-pairs traffic. Setting that
// ratio against the load-induced slowdown |G|/|H| yields the largest host
// that can emulate a guest efficiently.
//
// This package is the public façade over the implementation:
//
//   - machine construction for every family the paper analyses
//     (NewMachine and the named constructors);
//   - bandwidth, three ways: analytic Table 4 formulas (AnalyticBeta),
//     operational measurement on a packet-routing simulator (Run with a
//     RunBeta or RunSteadyBeta spec), and the graph-theoretic E(T)/C(H,T)
//     form (GraphBeta);
//   - the Efficient Emulation Theorem: slowdown lower bounds and maximum
//     host sizes for family pairs (SlowdownBound), reproducing the paper's
//     Tables 1-3 and Figure 1;
//   - executable emulations whose measured slowdown can be checked against
//     the bound (RunEmulation, VerifyBound);
//   - the bottleneck-freeness audit from the paper's host-side condition
//     (AuditBottleneck).
//
// # The unified RunSpec API
//
// Every simulator-backed measurement and emulation is expressible as a
// serializable request — a RunSpec — executed by Run (prebuilt machine),
// RunEmulation (prebuilt guest and host), or Execute (machines built from
// the spec). There is one entry point per operation: the run kind, the
// emulation mode, a mid-run fault scenario, a snapshot and the shard count
// are all fields of the spec, and a spec the machine cannot run is an
// error. The spec's Canonical() string is the system-wide identity: the
// netemud service's flight table and result store key off it, the
// experiment orchestrator names each β job's RNG stream by it, and
// results are byte-identical however the request arrives (Run call, CLI
// flag set, or HTTP POST). Shards is excluded from Canonical(): the
// simulator's determinism contract makes results identical at every
// shard count, so shard count is not part of a request's identity.
//
// Everything is deterministic given a seed; all randomness flows through
// explicitly seeded generators.
package netemu
