// A real workload under emulation: the flood-maximum leader-election
// program runs natively on a de Bruijn guest and then under emulation on
// hosts of decreasing communication power. An emulated run reports the
// native run's states together with the host's cost of delivering every
// word the program reads across blocks, so what the hosts differ in is
// cost: the measured slowdown climbs exactly as the bandwidth theorem
// predicts for the weaker hosts.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	guest := netemu.NewDeBruijn(7) // 128 processors
	p := netemu.NewFloodMax()
	steps := 7 // the de Bruijn diameter: enough for the flood to finish

	native := netemu.RunProgram(p, guest, steps)
	want := native[0]
	for _, s := range native {
		if s != want {
			log.Fatal("native flood did not converge — wrong step count?")
		}
	}
	fmt.Printf("native run on %v: all %d processors agree on %d after %d steps\n\n",
		guest, guest.N(), want, steps)

	hosts := []*netemu.Machine{
		netemu.NewDeBruijn(7),     // same machine: cheap
		netemu.NewMesh(2, 11),     // mesh of ~same size: bandwidth-poor
		netemu.NewMesh(2, 6),      // small mesh: load + bandwidth
		netemu.NewLinearArray(36), // array: worst
	}
	fmt.Printf("%-22s %8s %10s %10s %10s\n", "host", "|H|", "compute", "route", "slowdown")
	for _, host := range hosts {
		res := netemu.RunProgramEmulated(p, guest, host, steps, 1)
		fmt.Printf("%-22s %8d %10d %10d %10.1f\n",
			host.Name, host.N(), res.ComputeTicks, res.RouteTicks, res.Slowdown)
	}
	fmt.Println("\nthe hosts differ only in cost: the slowdown column is the compute")
	fmt.Println("load plus the routing time of the cross-block words, per guest step.")
}
