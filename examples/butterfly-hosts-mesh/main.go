// The positive contrast (Koch et al., cited as the paper's motivation for
// the redundant model): a butterfly CAN efficiently emulate a same-size
// mesh, because β(butterfly) = Θ(n/lg n) dominates β(mesh) = Θ(√n) — the
// bandwidth test is vacuous in this direction, even though any embedding
// of the mesh into the butterfly needs logarithmic dilation.
//
// The asymmetry is the whole point of the paper: mesh → butterfly is free
// (bandwidth-wise), butterfly → mesh is ruinous.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	meshSpec := netemu.Spec{Family: netemu.Mesh, Dim: 2}
	bflySpec := netemu.Spec{Family: netemu.Butterfly}

	// Direction 1: mesh guest on butterfly host.
	fwd, err := netemu.SlowdownBound(meshSpec, bflySpec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mesh on butterfly: max host %s\n", fwd.MaxHostString())

	// Direction 2: butterfly guest on mesh host.
	rev, err := netemu.SlowdownBound(bflySpec, meshSpec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("butterfly on mesh: max host %s\n\n", rev.MaxHostString())

	// Measure both directions at comparable sizes.
	mesh := netemu.NewMesh(2, 16)  // 256
	bfly := netemu.NewButterfly(6) // 448 (7 levels x 64 rows)
	fmt.Printf("machines: %v, %v\n\n", mesh, bfly)

	spec := netemu.RunSpec{Kind: netemu.RunEmulate, Steps: 4, Seed: 1}
	fwdRun, err := netemu.RunEmulation(mesh, bfly, spec)
	if err != nil {
		log.Fatal(err)
	}
	revRun, err := netemu.RunEmulation(bfly, mesh, spec)
	if err != nil {
		log.Fatal(err)
	}
	a, b := fwdRun.Emulation, revRun.Emulation
	fmt.Printf("mesh on butterfly: slowdown %6.1f (load bound %.2f)\n", a.Slowdown, a.LoadBound)
	fmt.Printf("butterfly on mesh: slowdown %6.1f (load bound %.2f)\n\n", b.Slowdown, b.LoadBound)

	nb, nm := float64(bfly.N()), float64(mesh.N())
	fmt.Printf("theorem, butterfly-on-mesh: slowdown ≥ β(G)/β(H) = %.1f\n",
		rev.CommunicationSlowdown(nb, nm))
	fmt.Println("the reverse direction has no bandwidth obstruction at all.")
}
