// Command crossover produces the data behind the paper's Figure 1: the
// load-induced slowdown upper curve |G|/|H| and the bandwidth-induced lower
// curve β(G)/β(H) as the host size varies, their crossover (the largest
// efficient host), and optionally a measured-emulation column.
//
// With -measure, the per-host-size emulations and β measurements run as
// jobs on the deterministic experiment orchestrator: each job's randomness
// is keyed by its identity (host size, or the measured machine), so the
// printed numbers are identical at any -workers value. The guest's β is
// one job whose value every row divides by.
//
// Usage:
//
//	crossover [-guest DeBruijn] [-gdim 2] [-gsize 1024]
//	          [-host Mesh] [-hdim 2] [-points 12] [-measure] [-steps 3]
//	          [-workers N]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/plot"
	"repro/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("crossover: ")
	guestName := flag.String("guest", "DeBruijn", "guest family")
	gdim := flag.Int("gdim", 2, "guest dimension")
	gsize := flag.Int("gsize", 1024, "guest size n")
	hostName := flag.String("host", "Mesh", "host family")
	hdim := flag.Int("hdim", 2, "host dimension")
	points := flag.Int("points", 12, "host sizes sampled geometrically in [4, n]")
	measure := flag.Bool("measure", false, "also run direct emulations per host size")
	steps := flag.Int("steps", 3, "guest steps for -measure")
	doPlot := flag.Bool("plot", false, "render an ASCII log-log chart of the two curves")
	seed := flag.Int64("seed", 1, "rng seed")
	workers := flag.Int("workers", 0, "concurrent measurement jobs (0 = GOMAXPROCS); output is identical at any value")
	flag.Parse()

	gf := family(*guestName)
	hf := family(*hostName)
	bound, err := netemu.SlowdownBound(
		netemu.Spec{Family: gf, Dim: *gdim},
		netemu.Spec{Family: hf, Dim: *hdim},
	)
	if err != nil {
		log.Fatal(err)
	}
	n := float64(*gsize)
	sizes, err := core.HostSizeGrid(n, *points)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Figure 1 data: %v guest (n=%d) on %v hosts\n\n", bound.Guest, *gsize, bound.Host)
	header := fmt.Sprintf("%-8s %14s %14s", "|H|", "load n/m", "comm β_G/β_H")
	if *measure {
		header += fmt.Sprintf(" %14s %14s", "measured S", "measured β_G/β_H")
	}
	fmt.Println(header)

	curve := bound.Curve(n, sizes)

	// With -measure, every host size becomes two orchestrator jobs (an
	// emulation and a host β measurement) plus one shared guest β job; all
	// randomness is keyed by job identity, so rows are reproducible at any
	// worker count.
	type measured struct{ slowdown, betaRatio float64 }
	var rows []*experiment.Future[measured]
	if *measure {
		r := experiment.New(*seed, *workers)
		opts := netemu.MeasureOptions{}
		guestBeta := r.BetaFuture(gf, *gdim, *gsize, opts)
		for _, pts := range curve {
			m := int(pts.M)
			key := fmt.Sprintf("crossover/%d", m)
			hostBeta := r.BetaFuture(hf, *hdim, m, opts)
			rows = append(rows, experiment.Go(r, key, func(rng *rand.Rand) measured {
				guest := topology.Build(gf, *gdim, *gsize, rng)
				host := topology.Build(hf, *hdim, m, rng)
				res, err := netemu.RunEmulation(guest, host, netemu.RunSpec{Kind: netemu.RunEmulate, Steps: *steps, Seed: rng.Int63()})
				if err != nil {
					log.Fatal(err)
				}
				return measured{
					slowdown:  res.Emulation.Slowdown,
					betaRatio: guestBeta.Wait().Beta / hostBeta.Wait().Beta,
				}
			}))
		}
	}
	for i, pts := range curve {
		line := fmt.Sprintf("%-8.0f %14.2f %14.2f", pts.M, pts.Load, pts.Comm)
		if *measure {
			got := rows[i].Wait()
			line += fmt.Sprintf(" %14.2f %14.2f", got.slowdown, got.betaRatio)
		}
		fmt.Println(line)
	}
	m, slow := bound.CrossoverPoint(n)
	fmt.Printf("\ncrossover: |H| ≈ %.0f with slowdown ≈ %.1f\n", m, slow)
	fmt.Printf("max efficient host (symbolic): %s\n", bound.MaxHostString())

	if *doPlot {
		load := plot.Series{Name: "load n/m", Marker: '*'}
		comm := plot.Series{Name: "comm β_G/β_H", Marker: 'o'}
		for _, p := range curve {
			load.X = append(load.X, p.M)
			load.Y = append(load.Y, p.Load)
			comm.X = append(comm.X, p.M)
			comm.Y = append(comm.Y, p.Comm)
		}
		fmt.Println()
		if err := plot.LogLog(os.Stdout, "Figure 1 (log-log): slowdown bounds vs |H|", 64, 16, load, comm); err != nil {
			log.Fatal(err)
		}
	}
}

func family(name string) netemu.Family {
	f, err := topology.ParseFamily(name)
	if err != nil {
		log.Fatal(err)
	}
	return f
}
