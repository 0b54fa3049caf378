// Quickstart: the paper's §1 running example in a dozen lines.
//
// An n-processor de Bruijn graph has bandwidth β = Θ(n/lg n); an
// m-processor 2-d mesh has β = Θ(√m). The Efficient Emulation Theorem
// therefore forces any efficient emulation of the de Bruijn on the mesh to
// slow down by Ω(n/(√m lg n)) — so only meshes of size m = O(lg² n) can
// emulate it efficiently.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	guest := netemu.Spec{Family: netemu.DeBruijn}
	host := netemu.Spec{Family: netemu.Mesh, Dim: 2}

	// Symbolic: the Table 4 bandwidths and the theorem's consequences.
	ga, err := netemu.AnalyticBeta(netemu.DeBruijn, 0)
	if err != nil {
		log.Fatal(err)
	}
	ha, err := netemu.AnalyticBeta(netemu.Mesh, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("β(de Bruijn) = Θ(%s)\n", ga.Beta)
	fmt.Printf("β(2-d mesh)  = Θ(%s)\n", ha.Beta)

	maxHost, err := netemu.MaxHostSize(guest, host)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("max efficient mesh host: %s\n\n", maxHost)

	// Concrete: build both machines and measure their bandwidth on the
	// packet-routing simulator.
	g := netemu.NewDeBruijn(8) // n = 256
	h := netemu.NewMesh(2, 16) // m = 256
	mg, err := netemu.Run(g, netemu.RunSpec{Kind: netemu.RunBeta, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	mh, err := netemu.Run(h, netemu.RunSpec{Kind: netemu.RunBeta, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured β(%s) = %.1f msgs/tick\n", g.Name, mg.Beta)
	fmt.Printf("measured β(%s) = %.1f msgs/tick\n", h.Name, mh.Beta)

	// The slowdown bound for this concrete pair, and a real emulation.
	bound, err := netemu.SlowdownBound(guest, host)
	if err != nil {
		log.Fatal(err)
	}
	n, m := float64(g.N()), float64(h.N())
	fmt.Printf("\ntheorem: slowdown ≥ max(%.1f load, %.1f bandwidth)\n",
		bound.LoadSlowdown(n, m), bound.CommunicationSlowdown(n, m))

	res, err := netemu.RunEmulation(g, h, netemu.RunSpec{Kind: netemu.RunEmulate, Steps: 4, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured slowdown of a direct emulation: %.1f\n", res.Emulation.Slowdown)
}
