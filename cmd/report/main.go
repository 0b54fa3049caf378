// Command report runs the full reproduction suite and emits a Markdown
// report comparing the paper's claims against measured values: Table 4
// formulas vs fitted exponents, Tables 1-3 symbolic entries, the Figure 1
// crossover, the emulation-matrix bound checks, bottleneck audits, the
// Theorem 6 equivalence with its packet timetables, the Lemma 9/11
// witness construction, and the prior-work baseline comparison.
//
// Sections run as jobs on the deterministic experiment orchestrator
// (internal/experiment): the output is byte-identical at any -workers
// value, so parallelism is free.
//
// Usage:
//
//	report [-quick] [-seed 1] [-workers N] [-o report.md]
//	       [-cpuprofile cpu.out] [-memprofile mem.out] [-trace trace.out]
//
// The profiling flags write standard pprof/trace output covering the whole
// run (go tool pprof / go tool trace).
package main

import (
	"flag"
	"log"
	"os"

	"repro/internal/profiling"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("report: ")
	quick := flag.Bool("quick", false, "smaller sweeps for a fast run")
	seed := flag.Int64("seed", 1, "rng seed")
	workers := flag.Int("workers", 0, "concurrent measurement jobs (0 = GOMAXPROCS); output is identical at any value")
	out := flag.String("o", "", "output file (default stdout)")
	prof := profiling.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stop, err := prof.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stop()

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	if err := report.Generate(w, report.Options{Quick: *quick, Seed: *seed, Workers: *workers}); err != nil {
		log.Fatal(err)
	}
}
