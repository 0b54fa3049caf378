package topology

import (
	"math/rand"
	"strings"
	"testing"
)

func TestDeleteRandomEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := Mesh(2, 8)
	d := DeleteRandomEdges(m, 0.2, rng)
	if d.Graph.E() >= m.Graph.E() {
		t.Fatalf("no edges deleted: %d vs %d", d.Graph.E(), m.Graph.E())
	}
	if m.Graph.E() != 112 {
		t.Fatalf("original mutated: E=%d", m.Graph.E())
	}
	if d.Name != "Mesh2[64]/faults" {
		t.Fatalf("name %q", d.Name)
	}
	// Roughly 20% of wires should be gone.
	lost := float64(m.Graph.E()-d.Graph.E()) / float64(m.Graph.E())
	if lost < 0.05 || lost > 0.4 {
		t.Fatalf("lost fraction %.2f, want ~0.2", lost)
	}
}

// ISSUE satellite: the lower boundary frac == 0 is a documented no-op
// clone — same wires, independent graph, "/faults" name.
func TestDeleteRandomEdgesZeroFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := Ring(10)
	d := DeleteRandomEdges(m, 0, rng)
	if d.Graph.E() != m.Graph.E() {
		t.Fatal("edges deleted at frac 0")
	}
	if d.Name != "Ring[10]/faults" {
		t.Fatalf("name %q", d.Name)
	}
	// The clone must be independent of the original.
	d.Graph.RemoveEdge(0, 1, 1)
	if m.Graph.E() != 10 {
		t.Fatalf("original mutated through the clone: E=%d", m.Graph.E())
	}
}

// ISSUE satellite: the upper boundary frac == 1 panics with an explicit
// machine/limit message in the DeleteRandomProcessors style, not a bare
// "out of [0,1)".
func TestDeleteRandomEdgesBadFracPanics(t *testing.T) {
	mustPanic := func(name string, frac float64, want string) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", name)
			}
			msg, ok := r.(string)
			if !ok {
				t.Fatalf("%s: panic value %v", name, r)
			}
			if !strings.Contains(msg, want) {
				t.Fatalf("%s: panic %q does not mention %q", name, msg, want)
			}
		}()
		DeleteRandomEdges(Ring(8), frac, rand.New(rand.NewSource(3)))
	}
	mustPanic("one", 1.0, "1 would delete all 8 wires")
	mustPanic("beyond", 1.5, "must be in [0,1)")
	mustPanic("negative", -0.1, "must be in [0,1)")
}

func TestDeleteRandomProcessors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := Mesh(2, 6)
	d, failed := DeleteRandomProcessors(m, 5, rng)
	if len(failed) != 5 {
		t.Fatalf("failed %d processors, want 5", len(failed))
	}
	for v := range failed {
		if d.Graph.Degree(v) != 0 {
			t.Fatalf("failed processor %d still wired", v)
		}
	}
}

func TestLargestComponentFraction(t *testing.T) {
	m := LinearArray(10)
	// Cut the path in the middle: components of 5 and 5.
	d := &Machine{Family: m.Family, Name: m.Name, Graph: m.Graph.Clone(), Procs: m.Procs}
	d.Graph.RemoveEdge(4, 5, 1)
	if got := LargestComponentFraction(d, nil); got != 0.5 {
		t.Fatalf("fraction = %v, want 0.5", got)
	}
	// The tie goes to the component with the smallest member.
	if comp, live := LargestLiveComponent(d, nil); live != 5 || comp[0] != 0 {
		t.Fatalf("largest live component %v (%d live), want [0..4] (5 live)", comp, live)
	}
	if got := LargestComponentFraction(m, nil); got != 1.0 {
		t.Fatalf("intact fraction = %v", got)
	}
}

func TestSurvivingSubmachine(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := Mesh(2, 6)
	d, failed := DeleteRandomProcessors(m, 4, rng)
	s := SurvivingSubmachine(d, failed)
	if s.N() < 20 || s.N() > 32 {
		t.Fatalf("survivor has %d processors", s.N())
	}
	if !s.Graph.Connected() {
		t.Fatal("survivor disconnected")
	}
	// The survivor preserves the processors-are-a-prefix invariant.
	for v := 0; v < s.N(); v++ {
		if !s.IsProcessor(v) {
			t.Fatalf("vertex %d should be a processor", v)
		}
	}
}

func TestSurvivingSubmachineKeepsCaps(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := WeakHypercube(4)
	d := DeleteRandomEdges(m, 0.1, rng)
	s := SurvivingSubmachine(d, nil)
	// Caps must survive the renumbering: every processor still capped at 1.
	for v := 0; v < s.N(); v++ {
		if s.Cap(v) != 1 {
			t.Fatalf("survivor cap(%d) = %d, want 1", v, s.Cap(v))
		}
	}
}

// The multibutterfly's claim: under the same edge-fault rate it keeps far
// more of its processors in one component than the butterfly, whose single
// switch per (row-prefix, level) is a single point of failure.
func TestMultibutterflyFaultToleranceBeatsButterfly(t *testing.T) {
	const frac = 0.3
	const trials = 20
	bflyTotal, mbflyTotal := 0.0, 0.0
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		bfly := Butterfly(5)
		mbfly := Multibutterfly(5, rng)
		db := DeleteRandomEdges(bfly, frac, rng)
		dm := DeleteRandomEdges(mbfly, frac, rng)
		bflyTotal += LargestComponentFraction(db, nil)
		mbflyTotal += LargestComponentFraction(dm, nil)
	}
	bflyAvg := bflyTotal / trials
	mbflyAvg := mbflyTotal / trials
	if mbflyAvg <= bflyAvg {
		t.Fatalf("multibutterfly survival %.3f not above butterfly %.3f", mbflyAvg, bflyAvg)
	}
	if mbflyAvg < 0.95 {
		t.Fatalf("multibutterfly survival %.3f too low at %d%% faults", mbflyAvg, int(frac*100))
	}
}

func TestDeleteRandomProcessorsPanicMessages(t *testing.T) {
	mustPanic := func(name string, m *Machine, count int, want string) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", name)
			}
			msg, ok := r.(string)
			if !ok {
				t.Fatalf("%s: panic value %v", name, r)
			}
			if !strings.Contains(msg, want) {
				t.Fatalf("%s: panic %q does not mention %q", name, msg, want)
			}
		}()
		DeleteRandomProcessors(m, count, rand.New(rand.NewSource(1)))
	}
	mustPanic("all", Ring(8), 8, "would leave none alive; at most 7 may fail")
	mustPanic("beyond", Ring(8), 12, "would leave none alive")
	mustPanic("single", LinearArray(1), 1, "single processor")
	mustPanic("negative", Ring(8), -1, "negative fault count")
}

func TestDeleteRandomProcessorsAllButOne(t *testing.T) {
	// The legal extreme: fail every processor but one.
	d, failed := DeleteRandomProcessors(Ring(8), 7, rand.New(rand.NewSource(2)))
	if len(failed) != 7 {
		t.Fatalf("failed %d, want 7", len(failed))
	}
	if got := LargestComponentFraction(d, failed); got != 1.0 {
		t.Fatalf("lone survivor fraction = %v, want 1", got)
	}
}

func TestLargestComponentFractionSingleProcessor(t *testing.T) {
	m := LinearArray(1)
	if got := LargestComponentFraction(m, nil); got != 1.0 {
		t.Fatalf("single-processor fraction = %v, want 1", got)
	}
	if got := LargestComponentFraction(m, map[int]bool{0: true}); got != 0 {
		t.Fatalf("all-failed fraction = %v, want 0", got)
	}
}

func TestSurvivingSubmachineClearsStaleGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := Mesh(2, 8)
	d, failed := DeleteRandomProcessors(m, 10, rng)
	s := SurvivingSubmachine(d, failed)
	if s.N() == m.N() {
		t.Skip("faults disconnected nothing; survivor intact")
	}
	if s.Side != 0 || s.Dim != 0 {
		t.Fatalf("degraded survivor still claims Side=%d Dim=%d for %d processors", s.Side, s.Dim, s.N())
	}
}

func TestSurvivingSubmachineIntactKeepsGeometry(t *testing.T) {
	m := Mesh(2, 8)
	s := SurvivingSubmachine(m, nil)
	if s.Side != m.Side || s.Dim != m.Dim || s.N() != m.N() {
		t.Fatalf("intact survivor changed: Side=%d Dim=%d N=%d", s.Side, s.Dim, s.N())
	}
}
