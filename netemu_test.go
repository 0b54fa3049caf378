package netemu

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/topology"
)

// mustRun is Run for tests and benchmarks: a spec error stops tb.
func mustRun(tb testing.TB, m *Machine, spec RunSpec) RunResult {
	tb.Helper()
	res, err := Run(m, spec)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// mustRunEmulation is mustRun for RunEmulation.
func mustRunEmulation(tb testing.TB, guest, host *Machine, spec RunSpec) RunResult {
	tb.Helper()
	res, err := RunEmulation(guest, host, spec)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func TestNewMachineAllFamilies(t *testing.T) {
	for _, f := range Families() {
		dim := 0
		if f.Dimensioned() {
			dim = 2
		}
		m := NewMachine(f, dim, 64, 1)
		if m == nil || m.N() < 8 {
			t.Fatalf("NewMachine(%v) = %v", f, m)
		}
	}
}

func TestNamedConstructors(t *testing.T) {
	if NewMesh(2, 4).N() != 16 {
		t.Fatal("NewMesh wrong")
	}
	if NewDeBruijn(5).N() != 32 {
		t.Fatal("NewDeBruijn wrong")
	}
	if NewExpander(32, 7).N() != 32 {
		t.Fatal("NewExpander wrong")
	}
	if NewMultibutterfly(3, 7).N() != 32 {
		t.Fatal("NewMultibutterfly wrong")
	}
}

func TestAnalyticBeta(t *testing.T) {
	a, err := AnalyticBeta(DeBruijn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Beta.String() != "n lg^{-1} n" {
		t.Fatalf("beta = %q", a.Beta.String())
	}
}

func TestMaxHostSizeHeadline(t *testing.T) {
	s, err := MaxHostSize(Spec{Family: DeBruijn}, Spec{Family: Mesh, Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "lg^{2} |G|") {
		t.Fatalf("MaxHostSize = %q, want O(lg^2 |G|)", s)
	}
}

func TestMeasureBetaFacade(t *testing.T) {
	m := NewMesh(2, 6)
	meas := mustRun(t, m, RunSpec{Kind: RunBeta, LoadFactors: []int{2, 4}, Trials: 1, Seed: 42})
	if meas.Beta <= 0 {
		t.Fatal("no rate")
	}
}

func TestGraphBetaFacade(t *testing.T) {
	if GraphBeta(NewMesh(2, 5), 4, 42) <= 0 {
		t.Fatal("no graph beta")
	}
}

func TestMeasurePermutation(t *testing.T) {
	st := MeasurePermutation(NewButterfly(3), 2, 42)
	if st.Messages != 64 || st.Ticks <= 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestEmulateFacade(t *testing.T) {
	res := mustRunEmulation(t, NewDeBruijn(5), NewMesh(2, 4), RunSpec{Kind: RunEmulate, Steps: 2, Seed: 42}).Emulation
	if res.Slowdown < res.LoadBound {
		t.Fatalf("slowdown %.1f below load %.1f", res.Slowdown, res.LoadBound)
	}
	circ := mustRunEmulation(t, NewRing(16), NewRing(4), RunSpec{Kind: RunEmulate, Steps: 2, Mode: RunModeCircuit, Duplicity: 2, Seed: 42}).Emulation
	if circ.Inefficiency < 1.5 {
		t.Fatalf("redundant inefficiency = %v", circ.Inefficiency)
	}
}

func TestVerifyBoundFacade(t *testing.T) {
	check, err := VerifyBound(NewDeBruijn(5), NewMesh(2, 4), 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if check.Ratio <= 0 {
		t.Fatalf("check %+v", check)
	}
}

func TestTablesFacade(t *testing.T) {
	if len(Table1(2, 2)) == 0 || len(Table2(2, 2)) == 0 || len(Table3(2)) == 0 {
		t.Fatal("empty tables")
	}
	var sb strings.Builder
	if err := WriteTable(&sb, "T1", Table1(2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := WriteTable4(&sb, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Mesh^2") {
		t.Fatal("missing table content")
	}
}

func TestAuditBottleneckFacade(t *testing.T) {
	rep := AuditBottleneck(NewMesh(2, 5), 2, MeasureOptions{LoadFactors: []int{4}, Trials: 1}, 42)
	if len(rep.Trials) != 2 {
		t.Fatalf("trials %d", len(rep.Trials))
	}
}

func TestDeterminismWithSeed(t *testing.T) {
	spec := RunSpec{Kind: RunEmulate, Steps: 2, Seed: 7}
	a := mustRunEmulation(t, NewDeBruijn(5), NewMesh(2, 4), spec).Emulation
	b := mustRunEmulation(t, NewDeBruijn(5), NewMesh(2, 4), spec).Emulation
	if a.HostTicks != b.HostTicks {
		t.Fatalf("non-deterministic: %d vs %d", a.HostTicks, b.HostTicks)
	}
}

func TestProgramFacade(t *testing.T) {
	guest, host := NewDeBruijn(5), NewMesh(2, 4)
	res := RunProgramEmulated(NewFloodMax(), guest, host, 5, 3)
	if res.HostTicks != res.ComputeTicks+res.RouteTicks {
		t.Fatalf("%d host ticks != %d compute + %d route", res.HostTicks, res.ComputeTicks, res.RouteTicks)
	}
	if load := float64(guest.N()) / float64(host.N()); res.Slowdown < load {
		t.Fatalf("slowdown %.1f below load bound %.1f", res.Slowdown, load)
	}
	if _, err := ProgramByName("floodmax"); err != nil {
		t.Fatal(err)
	}
	if _, err := ProgramByName("bogus"); err == nil {
		t.Fatal("bogus program accepted")
	}
	if NewSumDiffusion().Name() != "sumdiffusion" || NewParityWave().Name() != "paritywave" {
		t.Fatal("program names wrong")
	}
}

func TestPipelinedFacade(t *testing.T) {
	seq := mustRunEmulation(t, NewDeBruijn(5), NewMesh(2, 4), RunSpec{Kind: RunEmulate, Steps: 2, Seed: 5}).Emulation
	pipe := mustRunEmulation(t, NewDeBruijn(5), NewMesh(2, 4), RunSpec{Kind: RunEmulate, Steps: 2, Mode: RunModePipelined, Seed: 5}).Emulation
	if pipe.HostTicks > seq.HostTicks {
		t.Fatalf("pipelined %d > sequential %d", pipe.HostTicks, seq.HostTicks)
	}
}

func TestSteadyBetaFacade(t *testing.T) {
	if beta := mustRun(t, NewMesh(2, 5), RunSpec{Kind: RunSteadyBeta, Ticks: 200, Iters: 6, Seed: 5}).Beta; beta <= 0 {
		t.Fatalf("steady beta %v", beta)
	}
}

func TestFaultFacade(t *testing.T) {
	m := NewMultibutterfly(4, 9)
	d := DegradeEdges(m, 0.2, 9)
	if d.Graph.E() >= m.Graph.E() {
		t.Fatal("no degradation")
	}
	if f := SurvivalFraction(d); f <= 0 || f > 1 {
		t.Fatalf("survival %v", f)
	}
	s := Survivor(d)
	if !s.Graph.Connected() {
		t.Fatal("survivor disconnected")
	}
}

func TestMappingFacade(t *testing.T) {
	guest := NewDeBruijn(5)
	host := NewTree(3)
	assign := MappedContraction(guest, host, 11)
	if len(assign) != guest.N() {
		t.Fatalf("assignment covers %d", len(assign))
	}
	res := EmulateWithAssignment(guest, host, 2, assign, 11)
	if res.Slowdown < res.LoadBound {
		t.Fatalf("slowdown %v below load %v", res.Slowdown, res.LoadBound)
	}
}

func TestPatternFacade(t *testing.T) {
	p := NewFFTPattern(4)
	h := NewMesh(2, 4)
	bound := PatternBound(p, h, 1)
	ticks := MeasurePattern(p, h, 1)
	if float64(ticks) < bound {
		t.Fatalf("measured %d below bound %.1f", ticks, bound)
	}
	if NewBitonicPattern(3).Messages() <= NewFFTPattern(3).Messages() {
		t.Fatal("bitonic should carry more messages than fft")
	}
	if NewPrefixPattern(3).Endpoints() != 8 || NewAllToAllPattern(8).Endpoints() != 8 {
		t.Fatal("pattern endpoints wrong")
	}
}

func TestOpenLoopFacade(t *testing.T) {
	res := mustRun(t, NewMesh(2, 5), RunSpec{Kind: RunOpenLoop, Rate: 2, Ticks: 200, Seed: 4}).OpenLoop
	if res.Throughput <= 0 || res.P95Latency < 1 {
		t.Fatalf("open loop result %+v", res)
	}
}

func TestLocalityFacadeBeatsSymmetricOnArray(t *testing.T) {
	m := NewLinearArray(48)
	opts := MeasureOptions{LoadFactors: []int{2, 4}, Trials: 1}
	sym := mustRun(t, m, RunSpec{Kind: RunBeta, LoadFactors: opts.LoadFactors, Trials: opts.Trials, Seed: 6}).Beta
	local := MeasureBetaUnder(m, NewLocalityTraffic(m, 0.25), opts, 6).Beta
	if local <= sym {
		t.Fatalf("local rate %.1f should exceed symmetric %.1f on an array", local, sym)
	}
}

func TestEmulateOnFaultedMeshSurvivor(t *testing.T) {
	// Regression for the stale-geometry bug: a degraded mesh survivor used
	// to advertise its parent's Side^Dim layout, making the contraction map
	// place guest processors on hosts that no longer exist.
	rng := rand.New(rand.NewSource(21))
	mesh := NewMesh(2, 8)
	degraded, failed := topology.DeleteRandomProcessors(mesh, 12, rng)
	survivor := topology.SurvivingSubmachine(degraded, failed)
	if survivor.N() >= mesh.N() {
		t.Fatalf("survivor kept %d processors", survivor.N())
	}
	res := mustRunEmulation(t, NewMesh(2, 8), survivor, RunSpec{Kind: RunEmulate, Steps: 3, Seed: 21}).Emulation
	if res.Slowdown <= 0 {
		t.Fatalf("slowdown %v", res.Slowdown)
	}
	back := mustRunEmulation(t, survivor, NewMesh(2, 4), RunSpec{Kind: RunEmulate, Steps: 3, Seed: 22}).Emulation
	if back.Slowdown <= 0 {
		t.Fatalf("reverse slowdown %v", back.Slowdown)
	}
}
