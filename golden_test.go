package netemu

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mapping"
	"repro/internal/runspec"
	"repro/internal/topology"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// checkGolden compares got against testdata/<name>, rewriting the file
// instead when -update is passed.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run %s -update` to create it)", err, t.Name())
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file %s.\ngot:\n%s\nwant:\n%s\nIf the change is intended, regenerate with `go test -update`.",
			t.Name(), path, got, want)
	}
}

// nettablesAll renders what `nettables -table all -j 2 -k 2` prints: the
// reproduced Tables 1-4.
func nettablesAll() ([]byte, error) {
	var buf bytes.Buffer
	if err := WriteTable4(&buf, 2); err != nil {
		return nil, err
	}
	fmt.Fprintln(&buf)
	if err := WriteTable(&buf, "Table 1: mesh/torus/X-grid guests at j=2 (hosts at k=2)", Table1(2, 2)); err != nil {
		return nil, err
	}
	fmt.Fprintln(&buf)
	if err := WriteTable(&buf, "Table 2: mesh-of-trees/multigrid/pyramid guests at j=2 (hosts at k=2)", Table2(2, 2)); err != nil {
		return nil, err
	}
	fmt.Fprintln(&buf)
	if err := WriteTable(&buf, "Table 3: hypercubic guests (hosts at k=2)", Table3(2)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ISSUE satellite: lock the symbolic table output of cmd/nettables so a
// regression in the Table 1-3 regeneration machinery (growth-function
// arithmetic, formatting) is caught mechanically.
func TestNettablesGolden(t *testing.T) {
	got, err := nettablesAll()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "nettables_all.golden", got)
}

// Lock the -stats JSON schema (and the CSV series format) behind golden
// files. The run is fully deterministic: fixed machine, rate, ticks, and
// seed.
func TestSnapshotGolden(t *testing.T) {
	snap := mustRun(t, NewMesh(2, 5), RunSpec{Kind: RunOpenLoop, Rate: 4, Ticks: 120, TopK: 5, Snapshot: true, Seed: 7}).Snapshot

	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot_mesh2x5.golden.json", buf.Bytes())

	buf.Reset()
	if err := snap.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot_mesh2x5.golden.csv", buf.Bytes())
}

// Lock the snapshot schema of a faulted run too: the dropped/retried
// counters and the per-tick dropped series must stay byte-stable, and the
// schema version marks pre-fault snapshots as stale.
func TestSnapshotFaultsGolden(t *testing.T) {
	out := mustRun(t, NewMesh(2, 5), RunSpec{Kind: RunOpenLoop, Rate: 4, Ticks: 120, TopK: 5, Snapshot: true,
		Faults: "edges:0.15@t30,nodes:2@t60", Seed: 7})
	res, snap := out.OpenLoop, out.Snapshot

	if snap.SchemaVersion != 2 {
		t.Fatalf("schema version %d, want 2", snap.SchemaVersion)
	}
	if res.Dropped == 0 {
		t.Fatal("killing 2 of 25 processors dropped nothing; the golden would not cover the fault counters")
	}
	if snap.Injected != snap.Delivered+snap.Dropped+snap.Backlog {
		t.Fatalf("conservation: %d != %d+%d+%d", snap.Injected, snap.Delivered, snap.Dropped, snap.Backlog)
	}

	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot_mesh2x5_faults.golden.json", buf.Bytes())

	buf.Reset()
	if err := snap.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot_mesh2x5_faults.golden.csv", buf.Bytes())
}

// geometricRoutingSpecs are small runs whose every hop decision goes
// through the routing engine's next-hop choice on a hypercube, mesh or
// torus: greedy and Valiant β, open loops with and without a snapshot or
// a fault schedule, a steady-state β, a mapped emulation on a mesh host,
// and a mesh whose dimension exceeds the implicit generators' limit.
func geometricRoutingSpecs() []runspec.Spec {
	mesh := func(dim, size int) *runspec.MachineSpec {
		return &runspec.MachineSpec{Family: "Mesh", Dim: dim, Size: size}
	}
	torus := func(dim, size int) *runspec.MachineSpec {
		return &runspec.MachineSpec{Family: "Torus", Dim: dim, Size: size}
	}
	hypercube := &runspec.MachineSpec{Family: "WeakHypercube", Size: 64}
	return []runspec.Spec{
		{Kind: runspec.KindBeta, Machine: hypercube, LoadFactors: []int{2, 4}, Trials: 1, Seed: 5},
		{Kind: runspec.KindBeta, Machine: hypercube, LoadFactors: []int{2, 4}, Trials: 1, Strategy: "valiant", Seed: 5},
		{Kind: runspec.KindOpenLoop, Machine: mesh(2, 36), Rate: 3, Ticks: 60, Snapshot: true, TopK: 4, Seed: 7},
		{Kind: runspec.KindSteadyBeta, Machine: mesh(3, 27), Ticks: 48, Iters: 2, Seed: 9},
		{Kind: runspec.KindOpenLoop, Machine: torus(2, 25), Rate: 4, Ticks: 60, Seed: 11},
		{Kind: runspec.KindOpenLoop, Machine: torus(3, 27), Rate: 4, Ticks: 60, Seed: 13},
		{Kind: runspec.KindOpenLoop, Machine: torus(2, 36), Rate: 4, Ticks: 80, Faults: "edges:0.1@t20,nodes:2@t40", Seed: 15},
		{Kind: runspec.KindEmulate, Guest: &runspec.MachineSpec{Family: "DeBruijn", Size: 64}, Host: mesh(2, 16), Steps: 2, Mode: runspec.ModeMapped, Seed: 17},
		{Kind: runspec.KindOpenLoop, Machine: mesh(10, 1024), Rate: 8, Ticks: 40, Seed: 19},
	}
}

// Lock the bytes of runs that route on meshes, tori and hypercubes, the
// machines with a closed-form next hop. netemubench's correctness check
// compares against the same build, so only a committed golden can catch
// a change to the routing decisions themselves.
func TestGeometricRoutingGolden(t *testing.T) {
	cache := runspec.NewArtifactCache(0, 0)
	var buf bytes.Buffer
	for _, s := range geometricRoutingSpecs() {
		res, err := runspec.ExecuteCached(cache, s)
		if err != nil {
			t.Fatalf("%s: %v", s.Canonical(), err)
		}
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	checkGolden(t, "geometric_routing.golden", buf.Bytes())
}

// measureColdSpecs are netemubench's measure-cold shapes (bench module,
// coldShapes): β on a hypercube, an open loop on a large mesh, a
// steady-state β and a mapped emulation, each at three fixed seeds.
func measureColdSpecs() []runspec.Spec {
	mesh := func(size int) *runspec.MachineSpec {
		return &runspec.MachineSpec{Family: "Mesh", Dim: 2, Size: size}
	}
	shapes := []runspec.Spec{
		{Kind: runspec.KindBeta, Machine: &runspec.MachineSpec{Family: "WeakHypercube", Size: 1024}, LoadFactors: []int{2, 4}, Trials: 1},
		{Kind: runspec.KindOpenLoop, Machine: mesh(1024), Rate: 4, Ticks: 400},
		{Kind: runspec.KindSteadyBeta, Machine: mesh(64), Ticks: 96, Iters: 2},
		{Kind: runspec.KindEmulate, Guest: &runspec.MachineSpec{Family: "DeBruijn", Size: 256}, Host: mesh(64), Steps: 2, Mode: runspec.ModeMapped},
	}
	var specs []runspec.Spec
	for _, s := range shapes {
		for _, seed := range []int64{1, 2, 3} {
			s.Seed = seed
			specs = append(specs, s)
		}
	}
	return specs
}

// Lock the bytes of the benchmark's cold-measurement specs, so a faster
// simulator, refiner or mapping must answer them exactly as before.
func TestMeasureColdGolden(t *testing.T) {
	cache := runspec.NewArtifactCache(0, 0)
	var buf bytes.Buffer
	for _, s := range measureColdSpecs() {
		res, err := runspec.ExecuteCached(cache, s)
		if err != nil {
			t.Fatalf("%s: %v", s.Canonical(), err)
		}
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	checkGolden(t, "measure_cold.golden", buf.Bytes())
}

// Lock the partition refiner's decisions: one SHA-256 per recursive
// bisection assignment on the three pairs emusim -map is checked on, and
// the bisection estimates and refined partitions of two machines whose
// hubs give the refiner's gains their widest range.
func TestMappingGolden(t *testing.T) {
	build := func(family string, size int, seed int64) *topology.Machine {
		m, err := runspec.BuildMachine(runspec.MachineSpec{Family: family, Dim: 2, Size: size, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	pairs := []struct{ guest, host *topology.Machine }{
		{build("DeBruijn", 256, 1), build("Mesh", 64, 2)},
		{build("WeakHypercube", 1024, 1), build("Mesh", 64, 2)},
		{build("Butterfly", 400, 1), build("DeBruijn", 64, 2)},
	}
	var buf bytes.Buffer
	for _, p := range pairs {
		for seed := int64(1); seed <= 12; seed++ {
			assign := mapping.RecursiveBisection(p.guest, p.host, rand.New(rand.NewSource(seed)))
			h := sha256.New()
			for _, a := range assign {
				fmt.Fprintf(h, "%d,", a)
			}
			fmt.Fprintf(&buf, "RecursiveBisection %s -> %s seed=%d %x\n", p.guest.Name, p.host.Name, seed, h.Sum(nil))
		}
	}
	for _, m := range []*topology.Machine{topology.GlobalBus(256), topology.Pyramid(2, 16)} {
		for seed := int64(1); seed <= 4; seed++ {
			cut := m.Graph.EstimateBisection(3, rand.New(rand.NewSource(seed)))
			fmt.Fprintf(&buf, "EstimateBisection %s restarts=3 seed=%d %d\n", m.Name, seed, cut)
			// The estimate is the same at every seed, so also hash the
			// refined partition of one random balanced start.
			n := m.Graph.N()
			side := make([]bool, n)
			for _, v := range rand.New(rand.NewSource(seed)).Perm(n)[:n/2] {
				side[v] = true
			}
			cut = m.Graph.RefinePartition(side, 4*n)
			fmt.Fprintf(&buf, "RefinePartition %s seed=%d cut=%d %x\n", m.Name, seed, cut, sha256.Sum256(fmt.Append(nil, side)))
		}
	}
	checkGolden(t, "mapping.golden", buf.Bytes())
}
