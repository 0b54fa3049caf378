// The queueing-theoretic face of β: run the mesh open loop at increasing
// fractions of its saturation rate and watch delivery latency climb — flat
// near the unloaded distance until ~75% load, then sharply up. β is not
// just a throughput number; it is the capacity wall the latency curve hits.
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/plot"
)

func main() {
	m := netemu.NewMesh(2, 8)
	steady, err := netemu.Run(m, netemu.RunSpec{Kind: netemu.RunSteadyBeta, Ticks: 300, Iters: 8, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	sat := steady.Beta
	fmt.Printf("machine: %v\nsaturation rate: %.1f messages/tick\n\n", m, sat)
	fmt.Printf("%-10s %12s %12s %10s\n", "load", "throughput", "mean lat", "p95 lat")

	series := plot.Series{Name: "mean latency", Marker: '*'}
	for _, frac := range []float64{0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.95} {
		run, err := netemu.Run(m, netemu.RunSpec{Kind: netemu.RunOpenLoop, Rate: sat * frac, Ticks: 500, Seed: 2})
		if err != nil {
			log.Fatal(err)
		}
		res := run.OpenLoop
		fmt.Printf("%8.0f%% %12.2f %12.2f %10d\n",
			frac*100, res.Throughput, res.MeanLatency, res.P95Latency)
		series.X = append(series.X, frac*100)
		series.Y = append(series.Y, res.MeanLatency)
	}
	fmt.Println()
	if err := plot.LogLog(os.Stdout, "mean latency vs offered load (% of saturation)", 56, 12, series); err != nil {
		log.Fatal(err)
	}
}
