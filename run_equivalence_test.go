package netemu

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// smallTable4Machines are small instances of every Table 4 machine — the
// sweep the Run golden covers. Small sizes keep the 20-machine ×
// multi-kind matrix fast.
func smallTable4Machines(t *testing.T) []*Machine {
	t.Helper()
	return []*Machine{
		NewLinearArray(16),
		NewGlobalBus(16),
		NewTree(4),
		NewWeakPPN(16),
		NewXTree(4),
		NewMesh(2, 4),
		NewMesh(3, 3),
		NewTorus(2, 4),
		NewXGrid(2, 4),
		NewMeshOfTrees(2, 4),
		NewMultigrid(2, 4),
		NewPyramid(2, 4),
		NewButterfly(3),
		NewWrappedButterfly(3),
		NewCubeConnectedCycles(3),
		NewShuffleExchange(4),
		NewDeBruijn(4),
		NewWeakHypercube(4),
		NewMultibutterfly(3, 1),
		NewExpander(16, 1),
	}
}

// asJSON renders a value for byte-level comparison.
func asJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// table4RunSpecs are the run kinds the Table-4 golden pins, by label:
// batch β, open-loop saturation β, a fixed-rate open loop with and
// without a snapshot, the same under a mid-run wire fault, and a
// degradation curve.
func table4RunSpecs() []struct {
	label string
	spec  RunSpec
} {
	const seed = 42
	return []struct {
		label string
		spec  RunSpec
	}{
		{"beta", RunSpec{Kind: RunBeta, LoadFactors: []int{2}, Trials: 1, Seed: seed}},
		{"steady-beta", RunSpec{Kind: RunSteadyBeta, Ticks: 60, Iters: 3, Seed: seed}},
		{"open-loop", RunSpec{Kind: RunOpenLoop, Rate: 2, Ticks: 64, Seed: seed}},
		{"open-loop-snapshot", RunSpec{Kind: RunOpenLoop, Rate: 2, Ticks: 64, TopK: 5, Snapshot: true, Seed: seed}},
		{"open-loop-faults", RunSpec{Kind: RunOpenLoop, Rate: 2, Ticks: 64, TopK: 5, Snapshot: true, Faults: "edges:0.1@t20", Seed: seed}},
		{"fault-curve", RunSpec{Kind: RunFaultCurve, FaultFracs: []float64{0.2}, Ticks: 45, Seed: seed}},
	}
}

// TestRunSpecEquivalenceTable4 pins Run's bytes on every Table 4 machine
// and every simulator-backed run kind: testdata/run_table4.golden holds
// one SHA-256 of the result's JSON per (machine, kind) line, and a 4-shard
// run must hash to the serial digest. The golden is compared only when
// every machine ran, so a -run filter on one subtest still works.
func TestRunSpecEquivalenceTable4(t *testing.T) {
	machines := smallTable4Machines(t)
	var golden strings.Builder
	ran := 0
	for _, m := range machines {
		t.Run(m.Name, func(t *testing.T) {
			ran++
			for _, k := range table4RunSpecs() {
				digest := func(shards int) string {
					spec := k.spec
					spec.Shards = shards
					res, err := Run(m, spec)
					if err != nil {
						t.Fatalf("%s: %v", k.label, err)
					}
					sum := sha256.Sum256([]byte(asJSON(t, res)))
					return hex.EncodeToString(sum[:])
				}
				serial := digest(1)
				if sharded := digest(4); sharded != serial {
					t.Errorf("%s: 4 shards hash to %s, serial to %s", k.label, sharded, serial)
				}
				fmt.Fprintf(&golden, "%s %s %s\n", m.Name, k.label, serial)
			}
		})
	}
	if t.Failed() || ran < len(machines) {
		return
	}
	checkGolden(t, "run_table4.golden", []byte(golden.String()))
}

// TestRunRejectsUnhappyInputs feeds Run and RunEmulation inputs they must
// refuse with an error, never a panic: kinds an implicit (generator-backed)
// machine cannot run, a kind for the other entry point, and invalid knobs.
func TestRunRejectsUnhappyInputs(t *testing.T) {
	implicit, err := BuildMachineSpec(RunMachineSpec{Family: "Mesh", Dim: 2, Size: 64, Adjacency: "implicit"})
	if err != nil {
		t.Fatal(err)
	}
	mesh := NewMesh(2, 4)
	emulate := RunSpec{Kind: RunEmulate, Steps: 2, Seed: 1}
	cases := []struct {
		name string
		run  func() (RunResult, error)
		want string
	}{
		{"implicit steady-beta", func() (RunResult, error) {
			return Run(implicit, RunSpec{Kind: RunSteadyBeta, Seed: 1})
		}, "kind steady-beta needs a materialized graph"},
		{"implicit lambda", func() (RunResult, error) {
			return Run(implicit, RunSpec{Kind: RunLambda, Seed: 1})
		}, "kind lambda needs a materialized graph"},
		{"implicit fault-curve", func() (RunResult, error) {
			return Run(implicit, RunSpec{Kind: RunFaultCurve, FaultFracs: []float64{0.1}, Seed: 1})
		}, "kind fault-curve needs a materialized graph"},
		{"implicit locality beta", func() (RunResult, error) {
			return Run(implicit, RunSpec{Kind: RunBeta, Traffic: "locality:0.5", Seed: 1})
		}, "locality traffic needs a materialized graph"},
		{"emulate through Run", func() (RunResult, error) {
			return Run(mesh, emulate)
		}, "use RunEmulation or Execute"},
		{"open loop too short", func() (RunResult, error) {
			return Run(mesh, RunSpec{Kind: RunOpenLoop, Rate: 1, Ticks: 4, Seed: 1})
		}, "ticks must be at least 8"},
		{"implicit host", func() (RunResult, error) {
			return RunEmulation(mesh, implicit, emulate)
		}, "emulation needs materialized graphs"},
		{"implicit guest", func() (RunResult, error) {
			return RunEmulation(implicit, mesh, emulate)
		}, "emulation needs materialized graphs"},
		{"measurement through RunEmulation", func() (RunResult, error) {
			return RunEmulation(mesh, mesh, RunSpec{Kind: RunBeta, Seed: 1})
		}, "RunEmulation wants kind"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.run()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want one containing %q", err, c.want)
			}
		})
	}
}

// NewLocalityTraffic has no error return, so an implicit machine is a
// panic — with a message that names the cause, not a nil dereference.
func TestNewLocalityTrafficPanicsOnImplicit(t *testing.T) {
	implicit, err := BuildMachineSpec(RunMachineSpec{Family: "Torus", Dim: 2, Size: 16, Adjacency: "implicit"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "needs a materialized graph") {
			t.Fatalf("panic %v, want one naming the missing graph", r)
		}
	}()
	NewLocalityTraffic(implicit, 0.5)
}

// TestRunSpecShardsExcludedFromKey pins the contract the cache layers rely
// on: shard count changes neither the canonical key nor the result.
func TestRunSpecShardsExcludedFromKey(t *testing.T) {
	a := RunSpec{Kind: RunOpenLoop, Rate: 2, Ticks: 64, Seed: 7}
	b := a
	b.Shards = 4
	if a.Canonical() != b.Canonical() {
		t.Fatalf("canonical keys differ across shard counts:\n%s\n%s", a.Canonical(), b.Canonical())
	}
	m := NewDeBruijn(5)
	ra, err := Run(m, a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(m, b)
	if err != nil {
		t.Fatal(err)
	}
	if asJSON(t, ra) != asJSON(t, rb) {
		t.Fatalf("sharded result diverged from serial")
	}
}

// TestRunSpecDefaultsCanonicalize pins that zero values and spelled-out
// defaults share one canonical key (the coalescing/caching contract).
func TestRunSpecDefaultsCanonicalize(t *testing.T) {
	zero := RunSpec{Kind: RunBeta, Seed: 3}
	full := RunSpec{Kind: RunBeta, LoadFactors: []int{2, 4, 8}, Trials: 2,
		Strategy: "greedy", Traffic: "symmetric", Seed: 3}
	if zero.Canonical() != full.Canonical() {
		t.Fatalf("defaults canonicalize differently:\n%s\n%s", zero.Canonical(), full.Canonical())
	}
	different := full
	different.Seed = 4
	if different.Canonical() == full.Canonical() {
		t.Fatal("seed change did not change the canonical key")
	}
}
