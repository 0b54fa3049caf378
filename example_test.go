package netemu_test

import (
	"fmt"

	netemu "repro"
)

// The paper's headline: the largest 2-d mesh that can efficiently emulate
// an n-processor de Bruijn graph has only O(lg² n) processors.
func ExampleMaxHostSize() {
	s, err := netemu.MaxHostSize(
		netemu.Spec{Family: netemu.DeBruijn},
		netemu.Spec{Family: netemu.Mesh, Dim: 2},
	)
	if err != nil {
		panic(err)
	}
	fmt.Println(s)
	// Output: O(lg^{2} |G|)
}

// Table 4's symbolic bandwidths are available per family.
func ExampleAnalyticBeta() {
	a, err := netemu.AnalyticBeta(netemu.Butterfly, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("beta = Θ(%s), lambda = Θ(%s)\n", a.Beta, a.Lambda)
	// Output: beta = Θ(n lg^{-1} n), lambda = Θ(lg n)
}

// The Figure 1 crossover: for a de Bruijn guest of 4096 processors the
// bandwidth bound overtakes the load bound at exactly lg²(4096) = 144 mesh
// processors.
func ExampleBound_CrossoverPoint() {
	b, err := netemu.SlowdownBound(
		netemu.Spec{Family: netemu.DeBruijn},
		netemu.Spec{Family: netemu.Mesh, Dim: 2},
	)
	if err != nil {
		panic(err)
	}
	m, _ := b.CrossoverPoint(4096)
	fmt.Printf("largest efficient host: %.0f\n", m)
	// Output: largest efficient host: 144
}

// Machines are explicit graphs with exact structural parameters.
func ExampleNewMesh() {
	m := netemu.NewMesh(2, 4)
	fmt.Println(m.N(), m.Graph.E())
	// Output: 16 24
}

// Emulations are deterministic given a seed; the slowdown respects the
// load bound |G|/|H|.
func ExampleRunEmulation() {
	res, err := netemu.RunEmulation(netemu.NewDeBruijn(6), netemu.NewMesh(2, 4),
		netemu.RunSpec{Kind: netemu.RunEmulate, Steps: 2, Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Emulation.LoadBound, res.Emulation.Slowdown >= res.Emulation.LoadBound)
	// Output: 4 true
}

// Guest programs run under emulation with bit-exact semantics: the sorted
// output of odd-even transposition sort survives emulation on a 4-ring.
func ExampleRunProgramEmulated() {
	n := 12
	guest := netemu.NewLinearArray(n)
	p := netemu.NewOddEvenSort(n)
	res := netemu.RunProgramEmulated(p, guest, netemu.NewRing(4), n, 1)
	fmt.Println(netemu.StatesSorted(res.States))
	// Output: true
}

// Tables 1-3 regenerate mechanically; each row carries the minimum guest
// time and maximum host size.
func ExampleTable1() {
	rows := netemu.Table1(2, 3)
	for _, r := range rows {
		if r.Bound.Host.Family == netemu.LinearArray {
			fmt.Printf("%v on %v: %s\n", r.Bound.Guest, r.Bound.Host, r.MaxHost)
			break
		}
	}
	// Output: Mesh^2 on LinearArray: O(|G|^{1/2})
}
