// Command betameter measures the bandwidth β of a network machine
// operationally (by routing all-pairs message batches on the packet
// simulator) across a size sweep, fits the growth exponents, and compares
// them with the paper's Table 4 formula.
//
// Usage:
//
//	betameter [-family DeBruijn] [-dim 2] [-sizes 64,128,256,512]
//	          [-load 2,4,8] [-trials 2] [-seed 1] [-shards 0]
//	          [-stats out.json] [-rate 0.9]
//	          [-faults "edges:0.05@t100,nodes:8@t500,heal@t900"]
//	          [-json]
//	          [-cpuprofile cpu.out] [-memprofile mem.out] [-trace trace.out]
//
// -shards runs every simulation sharded across that many goroutines
// (0 = one per available CPU, 1 = serial). Results are bit-for-bit
// identical at every shard count; sharding only changes wall-clock time.
//
// -adjacency implicit builds the machines with generator-backed adjacency
// (WeakHypercube, Mesh, and Torus only), so million-vertex sizes — a
// dim-20 hypercube, a 1024x1024 mesh — build without materializing edge
// lists. Each β measurement is bit-identical to its explicit twin's; the
// flux/bisection bound columns, -steady, and -describe need the whole edge
// list and are unavailable (and because the bounds no longer draw from the
// sweep rng, the printed sweep as a whole is not draw-for-draw comparable
// with an explicit run's).
//
// With -json (which wants exactly one -sizes entry), the run becomes a
// serializable RunSpec executed through the unified API and the RunResult
// prints as indented JSON — byte-identical to what netemud's POST
// /v1/measure returns for the same spec, which is what the CI parity
// check diffs.
//
// With -sweep, the whole -sizes sweep executes as one batch over a shared
// artifact cache (machines and engines build once per size, pooled
// simulators recycle across points) and each size's RunResult streams as
// indented JSON — the concatenation is byte-identical to netemud's POST
// /v1/sweep response for the equivalent SweepSpec.
//
// With -stats, the largest size additionally runs an instrumented open-loop
// at -rate times its measured β and the statistical snapshot (latency
// quantiles, queue occupancy, top edge utilization, per-tick series) is
// written as JSON to the given path ("-" for stdout). With -faults, that
// open-loop executes the given fault spec mid-run — wires and processors
// fail (and heal) at the spec'd ticks while traffic flows — and the
// delivered/dropped/retried breakdown is printed; combined with -stats the
// snapshot is the faulted run's.
//
// The profiling flags write standard pprof/trace output covering the whole
// run (go tool pprof / go tool trace).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"

	"repro"
	"repro/internal/bandwidth"
	"repro/internal/profiling"
	"repro/internal/routing"
	"repro/internal/runspec"
	"repro/internal/server/specflags"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("betameter: ")
	familyName := flag.String("family", "DeBruijn", "machine family (see -list)")
	dim := flag.Int("dim", 2, "dimension for dimensioned families")
	sizes := flag.String("sizes", "64,128,256,512", "comma-separated size sweep")
	load := flag.String("load", "2,4,8", "comma-separated load factors (messages per processor)")
	trials := flag.Int("trials", 2, "trials per load factor")
	seed := flag.Int64("seed", 1, "rng seed")
	shards := flag.Int("shards", 0, "simulator shard count (0 = one per CPU, 1 = serial); results are identical at any value")
	list := flag.Bool("list", false, "list families and exit")
	describe := flag.Bool("describe", false, "print a structural summary of each instance")
	steady := flag.Bool("steady", false, "also measure the open-loop (steady-state) rate")
	stats := flag.String("stats", "", "write an instrumented open-loop snapshot of the largest size as JSON to this path (- for stdout)")
	statsTicks := flag.Int("stats-ticks", 400, "open-loop run length for -stats")
	rate := flag.Float64("rate", 0.9, "drive the -stats open-loop at this fraction of the measured beta (in (0, 1])")
	topK := flag.Int("topk", 10, "edge-utilization entries in the -stats snapshot")
	faults := flag.String("faults", "", `fault spec (e.g. "edges:0.05@t100,nodes:8@t500,heal@t900") executed mid-run on the largest size's open-loop`)
	adjacency := flag.String("adjacency", "", `machine representation: "explicit" (default) or "implicit" (generator-backed adjacency; WeakHypercube, Mesh, Torus only — results are bit-identical, but million-vertex sizes fit in memory)`)
	jsonOut := flag.Bool("json", false, "execute the single-size β spec through the unified RunSpec API and print the RunResult JSON (netemud parity format)")
	sweepOut := flag.Bool("sweep", false, "execute the whole -sizes sweep as one batch over a shared artifact cache and stream each size's RunResult JSON (netemud /v1/sweep parity format)")
	prof := profiling.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, f := range netemu.Families() {
			fmt.Println(f)
		}
		return
	}
	// Validate every knob up front: a bad flag should cost one line, not a
	// panic trace or a run that never terminates. The checks live in
	// specflags — shared with emusim and the netemud service.
	mf := &specflags.Measure{
		Family:     *familyName,
		Dim:        *dim,
		Sizes:      *sizes,
		Load:       *load,
		Trials:     *trials,
		Seed:       *seed,
		Shards:     *shards,
		Rate:       *rate,
		StatsTicks: *statsTicks,
		TopK:       *topK,
		Faults:     *faults,
		Adjacency:  *adjacency,
	}
	if err := mf.Validate(); err != nil {
		log.Fatal(err)
	}
	implicit := mf.Adjacency == runspec.AdjImplicit
	if implicit && *steady {
		log.Fatal("-steady needs a materialized graph; drop -adjacency implicit")
	}
	if implicit && *describe {
		log.Fatal("-describe needs a materialized graph; drop -adjacency implicit")
	}
	nshards := *shards
	if nshards == 0 {
		nshards = runtime.GOMAXPROCS(0)
	}

	stop, err := prof.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stop()

	if *sweepOut {
		// One batch over one artifact cache: machines and engines build
		// once per size, pooled sims carry across points, and each
		// printed document is byte-identical to the equivalent -json run.
		results, err := runspec.ExecuteSweep(runspec.NewArtifactCache(0, 0), mf.SweepSpec(nshards))
		if err != nil {
			log.Fatal(err)
		}
		for _, res := range results {
			buf, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				log.Fatal(err)
			}
			os.Stdout.Write(append(buf, '\n'))
		}
		return
	}

	if *jsonOut {
		if len(mf.SizeList) != 1 {
			log.Fatalf("-json wants exactly one -sizes entry, got %d", len(mf.SizeList))
		}
		spec := mf.BetaSpec(mf.SizeList[0])
		spec.Shards = nshards
		res, err := runspec.Execute(spec)
		if err != nil {
			log.Fatal(err)
		}
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(append(buf, '\n'))
		return
	}

	opts := netemu.MeasureOptions{LoadFactors: mf.LoadList, Trials: mf.Trials, Shards: nshards}
	rng := rand.New(rand.NewSource(*seed))

	var points []bandwidth.SweepPoint
	var lastMachine *netemu.Machine
	var lastBeta float64
	header := fmt.Sprintf("%-10s %12s %12s %12s", "n", "beta", "flux-bound", "bis-bound")
	if *steady {
		header += fmt.Sprintf(" %12s", "steady-beta")
	}
	fmt.Println(header)
	for _, size := range mf.SizeList {
		var m *netemu.Machine
		if implicit {
			var err error
			if m, err = topology.BuildImplicit(mf.Fam, *dim, size); err != nil {
				log.Fatal(err)
			}
		} else {
			m = topology.Build(mf.Fam, *dim, size, rng)
		}
		if *describe {
			info, err := topology.Describe(m, rng)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(info)
		}
		eng := routing.NewEngine(m, routing.Greedy)
		meas := bandwidth.MeasureBeta(eng, traffic.NewSymmetric(m.N()), opts, rng)
		points = append(points, bandwidth.SweepPoint{N: m.N(), Beta: meas.Beta})
		lastMachine, lastBeta = m, meas.Beta
		line := fmt.Sprintf("%-10d %12.2f", m.N(), meas.Beta)
		if implicit {
			// The flux and bisection bounds need the whole edge list; an
			// implicit sweep trades them for memory.
			line += fmt.Sprintf(" %12s %12s", "-", "-")
		} else {
			b := bandwidth.UpperBounds(m, 4, rng)
			line += fmt.Sprintf(" %12.2f %12.2f", b.Flux, b.Bisection)
		}
		if *steady {
			line += fmt.Sprintf(" %12.2f", bandwidth.SteadyStateBeta(eng, 300, 8, nshards, rng))
		}
		fmt.Println(line)
	}
	if len(points) >= 3 {
		a, bexp, _, rmse := bandwidth.FitGrowth(points)
		fmt.Printf("\nfit: beta ~ n^%.3f * lg^%.2f n   (rmse %.3f in lg-space)\n", a, bexp, rmse)
	}
	if analytic, err := netemu.AnalyticBeta(mf.Fam, *dim); err == nil {
		fmt.Printf("paper (Table 4): beta = Θ(%s), λ = Θ(%s)\n", analytic.Beta, analytic.Lambda)
	}
	if (*stats != "" || *faults != "") && lastMachine != nil {
		olRate := *rate * lastBeta
		if olRate <= 0 {
			olRate = 1
		}
		out, err := netemu.Run(lastMachine, netemu.RunSpec{Kind: netemu.RunOpenLoop, Rate: olRate, Ticks: *statsTicks,
			TopK: *topK, Snapshot: true, Faults: *faults, Shards: nshards, Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		if *faults != "" {
			res := out.OpenLoop
			fmt.Printf("\nfaults %q on %s at rate %.2f over %d ticks:\n", *faults, lastMachine.Name, olRate, *statsTicks)
			fmt.Printf("  injected %d  delivered %d  dropped %d  retried %d  backlog %d\n",
				res.Injected, res.Delivered, res.Dropped, res.Retried, res.Backlog)
			fmt.Printf("  delivered rate %.2f/tick (fault-free target %.2f)\n", res.Throughput, olRate)
		}
		if *stats != "" {
			if err := writeSnapshot(*stats, out.Snapshot); err != nil {
				log.Fatal(err)
			}
		}
	}
}

func writeSnapshot(path string, snap *netemu.Snapshot) error {
	if path == "-" {
		return snap.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
