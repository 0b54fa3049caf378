// The paper's headline experiment end to end: emulate de Bruijn guests on
// 2-d mesh hosts across a size sweep and watch the measured slowdown track
// the theorem's lower bound max(|G|/|H|, β(G)/β(H)) — including the
// crossover at |H| ≈ lg² |G| beyond which extra mesh processors stop
// helping.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	bound, err := netemu.SlowdownBound(
		netemu.Spec{Family: netemu.DeBruijn},
		netemu.Spec{Family: netemu.Mesh, Dim: 2},
	)
	if err != nil {
		log.Fatal(err)
	}

	guest := netemu.NewDeBruijn(8) // 256 processors
	n := float64(guest.N())
	fmt.Printf("guest: %v\n", guest)
	fmt.Printf("theorem: max efficient mesh host is %s\n\n", bound.MaxHostString())

	fmt.Printf("%-10s %12s %12s %12s %12s\n", "|H|", "load", "comm", "predicted", "measured")
	for _, side := range []int{2, 4, 6, 8, 12, 16} {
		host := netemu.NewMesh(2, side)
		m := float64(host.N())
		res, err := netemu.RunEmulation(guest, host, netemu.RunSpec{Kind: netemu.RunEmulate, Steps: 4, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10d %12.1f %12.1f %12.1f %12.1f\n",
			host.N(),
			bound.LoadSlowdown(n, m),
			bound.CommunicationSlowdown(n, m),
			bound.Slowdown(n, m),
			res.Emulation.Slowdown)
	}

	mx, slow := bound.CrossoverPoint(n)
	fmt.Printf("\nanalytic crossover: |H| ≈ %.0f (lg²n = %.0f), slowdown ≈ %.1f\n", mx, 64.0, slow)
	fmt.Println("past the crossover the measured slowdown flattens: the mesh's")
	fmt.Println("bandwidth, not its processor count, is the binding constraint.")
}
