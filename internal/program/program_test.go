package program

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func TestFloodMaxConvergesAfterDiameter(t *testing.T) {
	machines := []*topology.Machine{
		topology.Ring(16),
		topology.Mesh(2, 5),
		topology.DeBruijn(5),
		topology.Tree(4),
	}
	p := &FloodMax{}
	for _, m := range machines {
		diam, err := m.Graph.Diameter()
		if err != nil {
			t.Fatal(err)
		}
		states := Run(p, m, diam)
		want := slices.Max(Run(p, m, 0))
		for v, s := range states {
			if s != want {
				t.Fatalf("%s: processor %d holds %d, want %d after %d steps",
					m.Name, v, s, want, diam)
			}
		}
	}
}

func TestFloodMaxNotConvergedEarly(t *testing.T) {
	// One step short of the diameter, at least one processor must still
	// miss the max (the flood travels one hop per step).
	m := topology.LinearArray(20)
	p := &FloodMax{}
	states := Run(p, m, 5)
	want := slices.Max(Run(p, m, 0))
	converged := true
	for _, s := range states {
		if s != want {
			converged = false
		}
	}
	if converged {
		t.Fatal("flood converged faster than the diameter allows")
	}
}

// FloodMax's built-in seed puts the maximum of Ring(6) at processor 4, so
// the flood reaches processor 1 only after the full diameter, 3 steps.
func TestFloodMaxCustomValues(t *testing.T) {
	m := topology.Ring(6)
	p := &FloodMax{}
	const max = 2027820797
	if init := Run(p, m, 0); init[4] != max || slices.Max(init) != max {
		t.Fatalf("initial values %v, want the maximum %d at processor 4", init, max)
	}
	if s := Run(p, m, 2); s[1] == max {
		t.Fatalf("processor 1 holds the maximum after 2 steps: %v", s)
	}
	states := Run(p, m, 3)
	for v, s := range states {
		if s != max {
			t.Fatalf("processor %d holds %d, want %d", v, s, max)
		}
	}
}

func TestSumDiffusionConservesMass(t *testing.T) {
	// Regular guests only (the share rule needs uniform degree).
	machines := []*topology.Machine{
		topology.Ring(24),
		topology.Torus(2, 5),
		topology.WrappedButterfly(3),
		topology.CubeConnectedCycles(3),
	}
	p := SumDiffusion{}
	for _, m := range machines {
		states := Run(p, m, 10)
		var got Word
		for _, s := range states {
			got += s
		}
		var want Word
		for _, s := range Run(p, m, 0) {
			want += s
		}
		if got != want {
			t.Fatalf("%s: mass %d, want %d", m.Name, got, want)
		}
	}
}

func TestRunZeroStepsIsInit(t *testing.T) {
	m := topology.Ring(8)
	p := &FloodMax{}
	states := Run(p, m, 0)
	for v, s := range states {
		if s != p.Init(v) {
			t.Fatalf("zero-step run mutated state at %d", v)
		}
	}
}

func TestRunRejectsSwitchGuests(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Run(&FloodMax{}, topology.GlobalBus(8), 2)
}

// An emulated run pays host costs that add up: its ticks split exactly
// into compute and routing, and its slowdown is at least the load
// |G|/|H|. RunEmulated takes its states from Run, so only its costs are
// checked here.
func TestEmulatedMatchesNative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		guest, host *topology.Machine
	}{
		{topology.DeBruijn(5), topology.Mesh(2, 4)},
		{topology.Mesh(2, 6), topology.LinearArray(9)},
		{topology.Butterfly(3), topology.Tree(4)},
	}
	progs := []Program{&FloodMax{}, ParityWave{}}
	for _, c := range cases {
		for _, p := range progs {
			emu := RunEmulated(p, c.guest, c.host, 6, rng)
			if emu.HostTicks != emu.ComputeTicks+emu.RouteTicks {
				t.Fatalf("%s on %s, %s: %d host ticks != %d compute + %d route",
					c.guest.Name, c.host.Name, p.Name(), emu.HostTicks, emu.ComputeTicks, emu.RouteTicks)
			}
			load := float64(c.guest.N()) / float64(c.host.N())
			if emu.Slowdown < load {
				t.Fatalf("%s on %s, %s: slowdown %.1f below load bound %.1f",
					c.guest.Name, c.host.Name, p.Name(), emu.Slowdown, load)
			}
		}
	}
}

func TestEmulatedSlowdownTracksHostQuality(t *testing.T) {
	// Same guest and step count: a linear-array host must be slower than a
	// mesh host of the same size.
	rng := rand.New(rand.NewSource(2))
	guest := topology.DeBruijn(6)
	meshRes := RunEmulated(&FloodMax{}, guest, topology.Mesh(2, 4), 4, rng)
	arrRes := RunEmulated(&FloodMax{}, guest, topology.LinearArray(16), 4, rng)
	if arrRes.Slowdown <= meshRes.Slowdown {
		t.Fatalf("array host (%.1f) should be slower than mesh host (%.1f)",
			arrRes.Slowdown, meshRes.Slowdown)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"floodmax", "sumdiffusion", "paritywave"} {
		p, err := ByName(name)
		if err != nil || p.Name() != name {
			t.Fatalf("ByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown program accepted")
	}
}

// Property: on random ring sizes, hosts, and step counts, every library
// program's emulated run splits its host time exactly into compute and
// routing ticks and is at least as slow as the load bound |G|/|H|. (The
// emulated states are Run's by construction, so comparing them with a
// native run would prove nothing.)
func TestPropertyEmulationFaithful(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		guest := topology.Ring(8 + rng.Intn(24))
		host := topology.Ring(3 + rng.Intn(6))
		steps := 1 + rng.Intn(5)
		load := float64(guest.N()) / float64(host.N())
		for _, name := range []string{"floodmax", "sumdiffusion", "paritywave"} {
			p, err := ByName(name)
			if err != nil {
				return false
			}
			emu := RunEmulated(p, guest, host, steps, rng)
			if emu.HostTicks != emu.ComputeTicks+emu.RouteTicks || emu.Slowdown < load {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestOddEvenSortNative(t *testing.T) {
	n := 16
	m := topology.LinearArray(n)
	p := &OddEvenSort{N: n}
	states := Run(p, m, n)
	if !Sorted(states) {
		t.Fatalf("not sorted after %d rounds: %v", n, states)
	}
	// The multiset must be preserved: compare against sorted init values.
	init := make([]Word, n)
	for v := 0; v < n; v++ {
		init[v] = p.Init(v)
	}
	counts := map[Word]int{}
	for _, w := range init {
		counts[w]++
	}
	for _, w := range states {
		counts[w]--
	}
	for w, c := range counts {
		if c != 0 {
			t.Fatalf("value %d count off by %d", w, c)
		}
	}
}

// OddEvenSort's built-in sequence on 5 processors is 35, 28, 21, 14, 7:
// fully reversed, the worst case, which still sorts in n rounds.
func TestOddEvenSortCustomValues(t *testing.T) {
	m := topology.LinearArray(5)
	p := &OddEvenSort{N: 5}
	if init := Run(p, m, 0); !slices.Equal(init, []Word{35, 28, 21, 14, 7}) {
		t.Fatalf("initial values %v", init)
	}
	states := Run(p, m, 5)
	if want := []Word{7, 14, 21, 28, 35}; !slices.Equal(states, want) {
		t.Fatalf("states = %v, want %v", states, want)
	}
}

func TestOddEvenSortNotSortedEarly(t *testing.T) {
	n := 24
	m := topology.LinearArray(n)
	p := &OddEvenSort{N: n}
	if Sorted(Run(p, m, 2)) {
		t.Fatal("sorted suspiciously early")
	}
}

// Sorting on a 4-ring host pays the emulation's costs: ticks that split
// exactly into compute and routing, and a slowdown of at least the load.
// The sorted output itself is Run's, which TestOddEvenSortNative checks.
func TestOddEvenSortEmulatedMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 16
	guest, host := topology.LinearArray(n), topology.Ring(4)
	emu := RunEmulated(&OddEvenSort{N: n}, guest, host, n, rng)
	if emu.HostTicks != emu.ComputeTicks+emu.RouteTicks {
		t.Fatalf("%d host ticks != %d compute + %d route", emu.HostTicks, emu.ComputeTicks, emu.RouteTicks)
	}
	if load := float64(guest.N()) / float64(host.N()); emu.Slowdown < load {
		t.Fatalf("slowdown %.1f below load bound %.1f", emu.Slowdown, load)
	}
}
