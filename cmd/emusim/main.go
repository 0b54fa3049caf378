// Command emusim runs a concrete emulation of a guest machine on a host
// machine and reports the measured slowdown against the Efficient Emulation
// Theorem's lower bound.
//
// Usage:
//
//	emusim [-guest DeBruijn] [-gdim 2] [-gsize 256]
//	       [-host Mesh] [-hdim 2] [-hsize 64]
//	       [-steps 4] [-duplicity 1] [-circuit] [-seed 1] [-shards 0]
//	       [-stats out.json] [-faults "nodes:3@t2"] [-json]
//	       [-cpuprofile cpu.out] [-memprofile mem.out] [-trace trace.out]
//
// The flags build a serializable RunSpec (guest on the run seed, host on
// seed+1) executed through the unified API — the same request netemud's
// POST /v1/emulate serves. With -json the RunResult prints as indented
// JSON, byte-identical to the service's response for the same spec.
//
// -shards runs the host's measurement simulations sharded across that many
// goroutines (0 = one per available CPU, 1 = serial); results are
// bit-for-bit identical at every shard count. The profiling flags write
// standard pprof/trace output covering the whole run.
//
// With -faults "nodes:K@tS", K host processors die after guest step S: the
// guests they simulated are remapped to the nearest surviving hosts and the
// emulation finishes on the degraded machine, reporting the slowdown
// penalty the failure cost.
//
// With -stats, the host machine additionally runs an instrumented open-loop
// near its saturation rate and the statistical snapshot (latency quantiles,
// queue occupancy, top edge utilization, per-tick series) is written as
// JSON to the given path ("-" for stdout) — the observability companion to
// the slowdown numbers: it shows where the host's bandwidth goes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"repro"
	"repro/internal/profiling"
	"repro/internal/runspec"
	"repro/internal/server/specflags"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("emusim: ")
	guestName := flag.String("guest", "DeBruijn", "guest family")
	gdim := flag.Int("gdim", 2, "guest dimension (dimensioned families)")
	gsize := flag.Int("gsize", 256, "approximate guest size")
	hostName := flag.String("host", "Mesh", "host family")
	hdim := flag.Int("hdim", 2, "host dimension (dimensioned families)")
	hsize := flag.Int("hsize", 64, "approximate host size")
	steps := flag.Int("steps", 4, "guest steps to emulate")
	duplicity := flag.Int("duplicity", 1, "redundancy for -circuit mode")
	useCircuit := flag.Bool("circuit", false, "use the explicit circuit emulator")
	pipelined := flag.Bool("pipelined", false, "overlap compute with communication")
	useMapper := flag.Bool("map", false, "use the recursive-bisection mapper for the contraction")
	seed := flag.Int64("seed", 1, "rng seed")
	stats := flag.String("stats", "", "write an instrumented host open-loop snapshot as JSON to this path (- for stdout)")
	statsTicks := flag.Int("stats-ticks", 400, "open-loop run length for -stats")
	topK := flag.Int("topk", 10, "edge-utilization entries in the -stats snapshot")
	faults := flag.String("faults", "", `host fault spec "nodes:K@tS": K host processors die after guest step S and their guests are remapped`)
	shards := flag.Int("shards", 0, "simulator shard count for host measurements (0 = one per CPU, 1 = serial); results are identical at any value")
	jsonOut := flag.Bool("json", false, "print the RunResult JSON (netemud parity format) instead of the report")
	prof := profiling.RegisterFlags(flag.CommandLine)
	flag.Parse()

	// Validate every knob up front — including the fault spec, before any
	// machine is built — so a bad flag costs one line, not a panic trace.
	// The checks live in specflags, shared with betameter and netemud.
	ef := &specflags.Emulate{
		Guest:      *guestName,
		GDim:       *gdim,
		GSize:      *gsize,
		Host:       *hostName,
		HDim:       *hdim,
		HSize:      *hsize,
		Steps:      *steps,
		Duplicity:  *duplicity,
		Circuit:    *useCircuit,
		Pipelined:  *pipelined,
		Mapped:     *useMapper,
		Faults:     *faults,
		Seed:       *seed,
		Shards:     *shards,
		StatsTicks: *statsTicks,
		TopK:       *topK,
	}
	if err := ef.Validate(); err != nil {
		log.Fatal(err)
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

	spec := ef.Spec()
	res, err := runspec.Execute(spec)
	if err != nil {
		log.Fatal(err)
	}
	if *jsonOut {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(append(buf, '\n'))
		return
	}

	// The human-readable report needs the machines Execute ran on (names,
	// the theorem bound, the -stats open-loop).
	guest, host := res.EmulationResult.Guest, res.EmulationResult.Host
	fmt.Printf("guest: %v\nhost:  %v\n", guest, host)

	out := res.Emulation
	if deg := out.Degraded; deg != nil {
		fmt.Printf("\nfault: %d host processors die after guest step %d\n", ef.FaultPlan[0].Count, deg.FailStep)
		fmt.Printf("dead hosts:    %v (%d live)\n", deg.DeadHosts, deg.LiveHosts)
		fmt.Printf("remapped:      %d guest processors\n", deg.Remapped)
		fmt.Printf("slowdown:      %.2f pre-fault, %.2f post-fault (penalty %.2f)\n",
			deg.PreSlowdown, deg.PostSlowdown, deg.SlowdownPenalty)
	}
	fmt.Printf("\nguest steps:   %d\n", out.GuestSteps)
	fmt.Printf("host ticks:    %d (compute %d + route %d)\n", out.HostTicks, out.ComputeTicks, out.RouteTicks)
	fmt.Printf("slowdown:      %.2f\n", out.Slowdown)
	fmt.Printf("inefficiency:  %.2f\n", out.Inefficiency)
	fmt.Printf("load bound:    %.2f (|G|/|H|)\n", out.LoadBound)

	// The ratio compares the run reported above, in whatever mode it ran,
	// with the theorem's bound for the pair.
	if b, err := netemu.SlowdownBound(netemu.Spec{Family: guest.Family, Dim: guest.Dim}, netemu.Spec{Family: host.Family, Dim: host.Dim}); err == nil {
		bound := b.Slowdown(float64(guest.N()), float64(host.N()))
		fmt.Printf("\ntheorem bound: %.2f = max(|G|/|H|, β(G)/β(H))\n", bound)
		fmt.Printf("measured/bound ratio: %.2f\n", out.Slowdown/bound)
		fmt.Printf("max efficient host:   %s\n", b.MaxHostString())
	} else {
		fmt.Printf("\n(theorem bound unavailable: %v)\n", err)
	}

	if *stats != "" {
		// Run the host at 90% of its measured saturation rate so the
		// snapshot shows the loaded-but-stable regime the emulation
		// bound cares about.
		sat, err := netemu.Run(host, netemu.RunSpec{Kind: netemu.RunSteadyBeta, Ticks: 200, Iters: 6, Shards: nshards, Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		rate := 0.9 * sat.Beta
		if rate <= 0 {
			rate = 1
		}
		ol, err := netemu.Run(host, netemu.RunSpec{Kind: netemu.RunOpenLoop, Rate: rate, Ticks: *statsTicks,
			TopK: *topK, Snapshot: true, Shards: nshards, Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		if err := writeSnapshot(*stats, ol.Snapshot); err != nil {
			log.Fatal(err)
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
