// Package report generates the full reproduction report comparing the
// paper's claims against measured values: Table 4 formulas vs fitted
// exponents, Tables 1-3 symbolic entries, the Figure 1 crossover, the
// emulation-matrix bound checks, bottleneck audits, the Theorem 6
// equivalence with its packet timetables, the Lemma 9/11 witness
// construction, the prior-work baselines, and the conclusion extensions
// (algorithm patterns, fault tolerance).
//
// The report is built on the experiment orchestrator: every section is a
// coordinator that fans out leaf jobs (β sweep points, emulations, bound
// checks, fault trials) whose randomness is keyed by the job's identity,
// never drawn from a shared stream. Sections are assembled in declaration
// order, so the output is byte-identical at any worker count — `report
// -quick -workers 8` and `-workers 1` produce the same document, only
// faster. A β measurement two sections request (Table 4's sweep sizes vs
// Theorem 6's machines) is the same keyed job in both, so both print the
// same value.
package report

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"

	"repro"
	"repro/internal/bandwidth"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/experiment"
	"repro/internal/timetable"
	"repro/internal/traffic"
)

// Options configures a report run.
type Options struct {
	// Quick shrinks the sweeps for a fast run.
	Quick bool
	// Seed roots every job's RNG stream. Same seed → same bytes.
	Seed int64
	// Workers caps concurrent leaf jobs; < 1 means GOMAXPROCS. The value
	// changes wall-clock only, never the output.
	Workers int
}

// section is one report chapter: a stable identity (the key prefix of all
// its jobs) and a generator returning its markdown.
type section struct {
	name string
	fn   func(r *experiment.Runner, o Options) string
}

var sections = []section{
	{"table4", table4},
	{"tables123", tables123},
	{"figure1", figure1},
	{"matrix", emulationMatrix},
	{"bottleneck", bottleneck},
	{"theorem6", theorem6},
	{"lemmas", lemmas},
	{"baselines", baselines},
	{"patterns", patterns},
	{"faults", faults},
	{"resilience", resilience},
}

// Generate writes the report to w. Output depends only on Options.Quick and
// Options.Seed; Options.Workers trades wall-clock for parallelism without
// changing a byte.
func Generate(w io.Writer, o Options) error {
	r := experiment.New(o.Seed, o.Workers)
	futs := make([]*experiment.Future[string], len(sections))
	for i, s := range sections {
		s := s
		futs[i] = experiment.GoUnpooled(r, "section/"+s.name, func(*rand.Rand) string {
			return s.fn(r, o)
		})
	}
	var buf bytes.Buffer
	buf.WriteString("# Reproduction report\n\n")
	buf.WriteString("Kruskal & Rappoport, *Bandwidth-Based Lower Bounds on Slowdown for Efficient\n")
	buf.WriteString("Emulations of Fixed-Connection Networks*, SPAA 1994.\n\n")
	for _, f := range futs {
		buf.WriteString(f.Wait())
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// sweepOpts is the measurement configuration every β job in the report
// uses; keeping it uniform makes a machine's β one key, so every section
// prints the same value for it.
var sweepOpts = netemu.MeasureOptions{LoadFactors: []int{2, 4, 8}, Trials: 2}

func table4(r *experiment.Runner, o Options) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "## Table 4: bandwidth β per machine — paper vs measured\n\n")
	fmt.Fprintf(&b, "The exponent column fits measured β across a size sweep to\n")
	fmt.Fprintf(&b, "`β ~ n^a`; the paper column shows the Θ-form's leading exponent.\n")
	fmt.Fprintf(&b, "Butterfly-class machines (β = Θ(n/lg n)) have an *effective*\n")
	fmt.Fprintf(&b, "exponent of ~1 − 1/ln(n) at finite sizes, i.e. ≈ 0.8 here.\n\n")
	type entry struct {
		family   netemu.Family
		dim      int
		sizes    []int
		paperExp string
		paper    string
	}
	entries := []entry{
		{netemu.LinearArray, 0, []int{32, 64, 128, 256}, "0", "Θ(1)"},
		{netemu.Tree, 0, []int{31, 63, 127, 255}, "0", "Θ(1)"},
		{netemu.XTree, 0, []int{31, 63, 127, 255}, "0 (+lg)", "Θ(lg n)"},
		{netemu.Mesh, 2, []int{64, 144, 256, 576}, "0.50", "Θ(n^{1/2})"},
		{netemu.Mesh, 3, []int{64, 216, 512}, "0.67", "Θ(n^{2/3})"},
		{netemu.MeshOfTrees, 2, []int{40, 176, 736}, "0.50", "Θ(n^{1/2})"},
		{netemu.Pyramid, 2, []int{21, 85, 341}, "0.50", "Θ(n^{1/2})"},
		{netemu.Butterfly, 0, []int{64, 192, 448}, "~0.8", "Θ(n/lg n)"},
		{netemu.DeBruijn, 0, []int{64, 128, 256, 512}, "~0.8", "Θ(n/lg n)"},
		{netemu.ShuffleExchange, 0, []int{64, 128, 256}, "~0.8", "Θ(n/lg n)"},
		{netemu.CubeConnectedCycles, 0, []int{64, 160, 384}, "~0.8", "Θ(n/lg n)"},
		{netemu.WeakHypercube, 0, []int{64, 128, 256}, "~0.8", "Θ(n/lg n)"},
	}
	if o.Quick {
		for i := range entries {
			if len(entries[i].sizes) > 3 {
				entries[i].sizes = entries[i].sizes[:3]
			}
		}
	}
	// Fan out every (entry, size) β measurement as a keyed job.
	futs := make([][]*experiment.Future[bandwidth.Measurement], len(entries))
	for i, e := range entries {
		futs[i] = make([]*experiment.Future[bandwidth.Measurement], len(e.sizes))
		for j, size := range e.sizes {
			futs[i][j] = r.BetaFuture(e.family, e.dim, size, sweepOpts)
		}
	}
	fmt.Fprintf(&b, "| machine | paper β | paper exp | fitted exp | β at largest n |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|\n")
	for i, e := range entries {
		var pts []bandwidth.SweepPoint
		for _, f := range futs[i] {
			meas := f.Wait()
			pts = append(pts, bandwidth.SweepPoint{N: meas.Machine.N(), Beta: meas.Beta})
		}
		a, _, _, _ := bandwidth.FitGrowth(pts)
		name := e.family.String()
		if e.family.Dimensioned() {
			name = fmt.Sprintf("%v^%d", e.family, e.dim)
		}
		last := pts[len(pts)-1]
		fmt.Fprintf(&b, "| %s | %s | %s | %.2f | %.1f (n=%d) |\n",
			name, e.paper, e.paperExp, a, last.Beta, last.N)
	}
	fmt.Fprintf(&b, "\nPyramids and multigrids need a caveat: *every shortest path* between\n")
	fmt.Fprintf(&b, "far processors funnels through the apex, so the greedy shortest-path\n")
	fmt.Fprintf(&b, "router is apex-limited and understates β. The paper's β is a supremum\n")
	fmt.Fprintf(&b, "over routings; the congestion-aware rerouting estimator recovers the\n")
	fmt.Fprintf(&b, "mesh-grade scaling:\n\n")
	fmt.Fprintf(&b, "| machine | n | shortest-path β | rerouted β |\n|---|---|---|---|\n")
	type reroute struct {
		name           string
		n              int
		plain, improve float64
	}
	var rfuts []*experiment.Future[reroute]
	for _, mk := range []struct {
		dim, side int
		build     func(dim, side int) *netemu.Machine
	}{
		{2, 4, netemu.NewPyramid},
		{2, 8, netemu.NewPyramid},
		{2, 4, netemu.NewMultigrid},
		{2, 8, netemu.NewMultigrid},
	} {
		mk := mk
		probe := mk.build(mk.dim, mk.side)
		key := fmt.Sprintf("table4/reroute/%s", probe.Name)
		rfuts = append(rfuts, experiment.Go(r, key, func(rng *rand.Rand) reroute {
			m := mk.build(mk.dim, mk.side)
			return reroute{
				name:    m.Name,
				n:       m.N(),
				plain:   netemu.GraphBeta(m, 3, rng.Int63()),
				improve: netemu.ImprovedGraphBeta(m, 3, rng.Int63()),
			}
		}))
	}
	for _, f := range rfuts {
		got := f.Wait()
		fmt.Fprintf(&b, "| %s | %d | %.1f | %.1f |\n", got.name, got.n, got.plain, got.improve)
	}
	fmt.Fprintf(&b, "\n(the rerouted column doubles when the machine quadruples — Θ(√n))\n\n")
	return b.String()
}

func tables123(*experiment.Runner, Options) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "## Tables 1–3: maximum host sizes (symbolic)\n\n")
	fmt.Fprintf(&b, "Derived mechanically from Table 4 by solving β_H(m)/m = β_G(n)/n.\n")
	fmt.Fprintf(&b, "Selected rows (full tables: `go run ./cmd/nettables`):\n\n")
	fmt.Fprintf(&b, "| guest | host | min guest time | max host size |\n|---|---|---|---|\n")
	show := func(rows []core.Row, guestFam, hostFam netemu.Family) {
		for _, row := range rows {
			if row.Bound.Guest.Family == guestFam && row.Bound.Host.Family == hostFam {
				fmt.Fprintf(&b, "| %v | %v | %s | %s |\n", row.Bound.Guest, row.Bound.Host, row.MinTime, row.MaxHost)
				return
			}
		}
	}
	t1 := netemu.Table1(2, 3)
	show(t1, netemu.Mesh, netemu.LinearArray)
	show(t1, netemu.Mesh, netemu.XTree)
	show(t1, netemu.Mesh, netemu.Mesh)
	t2 := netemu.Table2(2, 3)
	show(t2, netemu.Pyramid, netemu.LinearArray)
	show(t2, netemu.MeshOfTrees, netemu.XTree)
	t3 := netemu.Table3(2)
	show(t3, netemu.DeBruijn, netemu.LinearArray)
	show(t3, netemu.DeBruijn, netemu.Mesh)
	show(t3, netemu.Butterfly, netemu.MeshOfTrees)
	show(t3, netemu.Expander, netemu.Mesh)
	fmt.Fprintf(&b, "\n")
	return b.String()
}

func figure1(r *experiment.Runner, o Options) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "## Figure 1: load vs bandwidth slowdown crossover\n\n")
	bound, err := netemu.SlowdownBound(
		netemu.Spec{Family: netemu.DeBruijn},
		netemu.Spec{Family: netemu.Mesh, Dim: 2})
	if err != nil {
		panic(fmt.Sprintf("report: figure1 bound: %v", err))
	}
	n := 4096.0
	m, slow := bound.CrossoverPoint(n)
	fmt.Fprintf(&b, "Headline pair (de Bruijn n=4096 on 2-d meshes): analytic crossover at\n")
	fmt.Fprintf(&b, "|H| ≈ %.0f (prediction lg²n = 144) with slowdown ≈ %.1f.\n\n", m, slow)

	fmt.Fprintf(&b, "Measured emulation slowdown across host sizes (guest n=256, 4 steps):\n\n")
	fmt.Fprintf(&b, "| \\|H\\| | load bound | comm bound | measured |\n|---|---|---|---|\n")
	sides := []int{2, 4, 8, 12, 16}
	if o.Quick {
		sides = []int{2, 4, 8, 16}
	}
	futs := make([]*experiment.Future[float64], len(sides))
	for i, side := range sides {
		side := side
		key := fmt.Sprintf("figure1/side/%d", side)
		futs[i] = experiment.Go(r, key, func(rng *rand.Rand) float64 {
			guest := netemu.NewDeBruijn(8)
			host := netemu.NewMesh(2, side)
			res, err := netemu.RunEmulation(guest, host, netemu.RunSpec{Kind: netemu.RunEmulate, Steps: 4, Seed: rng.Int63()})
			if err != nil {
				panic(fmt.Sprintf("report: figure1 side %d: %v", side, err))
			}
			return res.Emulation.Slowdown
		})
	}
	for i, side := range sides {
		hm := float64(side * side)
		fmt.Fprintf(&b, "| %d | %.1f | %.1f | %.1f |\n",
			side*side, bound.LoadSlowdown(256, hm), bound.CommunicationSlowdown(256, hm), futs[i].Wait())
	}
	fmt.Fprintf(&b, "\nThe measured column falls with |H| until the comm bound takes over,\n")
	fmt.Fprintf(&b, "then flattens — the Figure 1 shape.\n\n")
	return b.String()
}

func emulationMatrix(r *experiment.Runner, o Options) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "## Emulation matrix: measured slowdown vs theorem bound\n\n")
	fmt.Fprintf(&b, "The theorem guarantees measured/bound stays Ω(1); ratios below ~0.5\n")
	fmt.Fprintf(&b, "would falsify the reproduction.\n\n")
	pairs := []struct {
		name        string
		guest, host func() *netemu.Machine
	}{
		{"Mesh² on LinearArray", func() *netemu.Machine { return netemu.NewMesh(2, 8) }, func() *netemu.Machine { return netemu.NewLinearArray(16) }},
		{"Mesh² on Tree", func() *netemu.Machine { return netemu.NewMesh(2, 8) }, func() *netemu.Machine { return netemu.NewTree(4) }},
		{"Mesh² on Mesh²", func() *netemu.Machine { return netemu.NewMesh(2, 8) }, func() *netemu.Machine { return netemu.NewMesh(2, 4) }},
		{"DeBruijn on Mesh²", func() *netemu.Machine { return netemu.NewDeBruijn(6) }, func() *netemu.Machine { return netemu.NewMesh(2, 4) }},
		{"DeBruijn on X-Tree", func() *netemu.Machine { return netemu.NewDeBruijn(6) }, func() *netemu.Machine { return netemu.NewXTree(4) }},
		{"Butterfly on Mesh²", func() *netemu.Machine { return netemu.NewButterfly(4) }, func() *netemu.Machine { return netemu.NewMesh(2, 4) }},
		{"Mesh² on Butterfly", func() *netemu.Machine { return netemu.NewMesh(2, 8) }, func() *netemu.Machine { return netemu.NewButterfly(4) }},
		{"CCC on LinearArray", func() *netemu.Machine { return netemu.NewCubeConnectedCycles(4) }, func() *netemu.Machine { return netemu.NewLinearArray(16) }},
	}
	futs := make([]*experiment.Future[netemu.BoundCheck], len(pairs))
	for i, p := range pairs {
		p := p
		futs[i] = experiment.Go(r, "matrix/"+p.name, func(rng *rand.Rand) netemu.BoundCheck {
			check, err := netemu.VerifyBound(p.guest(), p.host(), 3, rng.Int63())
			if err != nil {
				panic(fmt.Sprintf("report: matrix %s: %v", p.name, err))
			}
			return check
		})
	}
	fmt.Fprintf(&b, "| pair | \\|G\\| | \\|H\\| | bound | measured | ratio |\n|---|---|---|---|---|---|\n")
	for i, p := range pairs {
		check := futs[i].Wait()
		fmt.Fprintf(&b, "| %s | %d | %d | %.1f | %.1f | %.2f |\n",
			p.name, check.N, check.M, check.Predicted, check.Measured, check.Ratio)
	}
	fmt.Fprintf(&b, "\n")
	return b.String()
}

func bottleneck(r *experiment.Runner, o Options) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "## Bottleneck-freeness audit (host-side hypothesis)\n\n")
	machines := []func() *netemu.Machine{
		func() *netemu.Machine { return netemu.NewMesh(2, 8) },
		func() *netemu.Machine { return netemu.NewTree(6) },
		func() *netemu.Machine { return netemu.NewXTree(6) },
		func() *netemu.Machine { return netemu.NewDeBruijn(6) },
		func() *netemu.Machine { return netemu.NewLinearArray(64) },
	}
	type audited struct {
		name string
		rep  netemu.BottleneckReport
	}
	futs := make([]*experiment.Future[audited], len(machines))
	for i, mk := range machines {
		mk := mk
		name := mk().Name
		futs[i] = experiment.Go(r, "bottleneck/"+name, func(rng *rand.Rand) audited {
			m := mk()
			return audited{name: m.Name, rep: netemu.AuditBottleneck(m, 3, netemu.MeasureOptions{}, rng.Int63())}
		})
	}
	fmt.Fprintf(&b, "| machine | β symmetric | worst quasi/symmetric ratio |\n|---|---|---|\n")
	for _, f := range futs {
		got := f.Wait()
		fmt.Fprintf(&b, "| %s | %.2f | %.2f |\n", got.name, got.rep.SymmetricBeta, got.rep.WorstRatio)
	}
	fmt.Fprintf(&b, "\nAll ratios are O(1), consistent with the paper's (unproven) remark\n")
	fmt.Fprintf(&b, "that the standard machines are bottleneck-free.\n\n")
	return b.String()
}

func theorem6(r *experiment.Runner, o Options) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "## Theorem 6: operational β vs graph-theoretic E(T)/C(M,T)\n\n")
	machines := []struct {
		family netemu.Family
		dim    int
		size   int
		build  func() *netemu.Machine
	}{
		{netemu.Mesh, 2, 64, func() *netemu.Machine { return netemu.NewMesh(2, 8) }},
		{netemu.Tree, 0, 63, func() *netemu.Machine { return netemu.NewTree(6) }},
		{netemu.DeBruijn, 0, 64, func() *netemu.Machine { return netemu.NewDeBruijn(6) }},
		{netemu.Ring, 0, 64, func() *netemu.Machine { return netemu.NewRing(64) }},
	}
	// Operational β: the Mesh²/DeBruijn entries are the same keyed jobs
	// Table 4's sweep requests, so they print the same values.
	ops := make([]*experiment.Future[bandwidth.Measurement], len(machines))
	gts := make([]*experiment.Future[float64], len(machines))
	tts := make([]*experiment.Future[[2]float64], len(machines))
	for i, mk := range machines {
		mk := mk
		ops[i] = r.BetaFuture(mk.family, mk.dim, mk.size, sweepOpts)
		name := mk.build().Name
		gts[i] = experiment.Go(r, "theorem6/"+name, func(rng *rand.Rand) float64 {
			return netemu.GraphBeta(mk.build(), 6, rng.Int63())
		})
		tts[i] = experiment.Go(r, "theorem6/timetable/"+name, func(rng *rand.Rand) [2]float64 {
			return timetableRatios(mk.build(), rng)
		})
	}
	fmt.Fprintf(&b, "| machine | operational | E(T)/C(M,T) | ratio | makespan / max(c, d) |\n|---|---|---|---|---|\n")
	for i, mk := range machines {
		op := ops[i].Wait().Beta
		gt := gts[i].Wait()
		tt := tts[i].Wait()
		fmt.Fprintf(&b, "| %s | %.2f | %.2f | %.2f | %.2f / %.2f |\n", mk.build().Name, op, gt, op/gt, tt[0], tt[1])
	}
	fmt.Fprintf(&b, "\nRatios sit in a constant band, as Theorem 6's Θ-equivalence requires.\n")
	fmt.Fprintf(&b, "The last column stands in for Leighton, Maggs & Rao: the symmetric\n")
	fmt.Fprintf(&b, "traffic graph K_n, embedded along shortest paths, is scheduled packet\n")
	fmt.Fprintf(&b, "by packet on the machine's wires (greedy earliest-fit / random initial\n")
	fmt.Fprintf(&b, "delay), and its makespan is divided by the max(congestion, dilation)\n")
	fmt.Fprintf(&b, "lower bound. A constant ratio is the O(c + d) schedule the theorem's\n")
	fmt.Fprintf(&b, "converse direction needs.\n\n")
	return b.String()
}

// timetableRatios schedules the symmetric traffic graph of m, embedded
// along shortest paths, as packets on m's wires, and returns the greedy
// and random-delay makespans over the max(c, d) lower bound.
func timetableRatios(m *netemu.Machine, rng *rand.Rand) [2]float64 {
	e := embed.ShortestPaths(m.Graph, traffic.NewSymmetric(m.N()).Graph(), embed.IdentityMap(m.N()))
	packets := timetable.FromEmbedding(e)
	greedy := timetable.Greedy(m.Graph, packets, rng)
	delay := timetable.RandomDelay(m.Graph, packets, 1, rng)
	return [2]float64{
		float64(greedy.Makespan) / float64(greedy.LowerBound()),
		float64(delay.Makespan) / float64(delay.LowerBound()),
	}
}

// lemmas runs the Lemma 9 witness construction and the Lemma 11 collapse
// on small fixed-degree guests.
func lemmas(r *experiment.Runner, o Options) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "## Lemmas 9 and 11: the γ witness inside an efficient circuit\n\n")
	fmt.Fprintf(&b, "Lemma 9 finds, inside any efficient circuit Φ that emulates t > λ(G)\n")
	fmt.Fprintf(&b, "steps of G, a traffic graph γ ∈ K_{r,1} whose canonical embedding into Φ\n")
	fmt.Fprintf(&b, "has low congestion, so β(Φ, γ) = E(γ)/congestion is large. Each row\n")
	fmt.Fprintf(&b, "builds the one-copy circuit of 2c+1 steps, checks it (valid, and at\n")
	fmt.Fprintf(&b, "most 1× the guest's work), builds γ with cones of depth c, and checks\n")
	fmt.Fprintf(&b, "γ ∈ K_{r,1}: on r = |Φ| vertices, at least %.1f·r(r−1) edges, and no\n", krsDensity)
	fmt.Fprintf(&b, "vertex pair carrying two γ-edges. Lemma 11 then assigns Φ's nodes to\n")
	fmt.Fprintf(&b, "m = %d processors at random, balanced, and keeps the γ-edges that join\n", lemmaHost)
	fmt.Fprintf(&b, "different processors (ξ).\n\n")
	guests := []struct {
		m    *netemu.Machine
		cone int
	}{
		{netemu.NewMesh(2, 4), 3},
		{netemu.NewDeBruijn(4), 4},
		{netemu.NewTree(4), 4},
		{netemu.NewCubeConnectedCycles(3), 4},
	}
	type witness struct {
		nodes            int
		valid, efficient bool
		gamma            *circuit.Gamma
		k1               error
		kept             float64
		err              error
	}
	futs := make([]*experiment.Future[witness], len(guests))
	for i, g := range guests {
		g := g
		futs[i] = experiment.Go(r, "lemmas/"+g.m.Name, func(rng *rand.Rand) witness {
			c := circuit.NonRedundant(g.m.Graph, 2*g.cone+1)
			w := witness{nodes: c.NodeCount(), valid: c.Validate() == nil, efficient: c.Efficient(1)}
			w.gamma, w.err = circuit.BuildGamma(c, g.cone)
			if w.err != nil {
				return w
			}
			w.k1 = traffic.KrsMembership(w.gamma.Traffic, 1, krsDensity)
			a := circuit.BalancedRandomAssignment(w.gamma.Traffic.N(), lemmaHost, rng)
			xi := circuit.CollapseTraffic(w.gamma.Traffic, a, lemmaHost)
			w.kept = float64(xi.E()) / float64(w.gamma.EdgeCount())
			return w
		})
	}
	fmt.Fprintf(&b, "| guest | \\|G\\| | c | Φ nodes | valid | 1-efficient | E(γ) | congestion | β(Φ, γ) | γ ∈ K_{r,1} | E(ξ)/E(γ) |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|---|---|---|\n")
	for i, g := range guests {
		w := futs[i].Wait()
		if w.err != nil {
			fmt.Fprintf(&b, "| %s | %d | %d | %d | error: %v |\n", g.m.Name, g.m.N(), g.cone, w.nodes, w.err)
			continue
		}
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %s | %s | %d | %d | %.2f | %s | %.2f |\n",
			g.m.Name, g.m.N(), g.cone, w.nodes, yesNo(w.valid), yesNo(w.efficient),
			w.gamma.EdgeCount(), w.gamma.Congestion, w.gamma.Beta(), yesNo(w.k1 == nil), w.kept)
	}
	fmt.Fprintf(&b, "\n")
	return b.String()
}

// lemmaHost is the processor count the Lemma 11 collapse maps onto, and
// krsDensity the constant the K_{r,1} check makes explicit.
const (
	lemmaHost  = 8
	krsDensity = 0.1
)

func yesNo(ok bool) string {
	if ok {
		return "yes"
	}
	return "no"
}

func baselines(*experiment.Runner, Options) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "## §1.2 comparison: bandwidth method vs Koch et al. congestion bounds\n\n")
	fmt.Fprintf(&b, "At |G| = |H| = n the two methods coincide exactly for mesh-on-mesh pairs:\n\n")
	fmt.Fprintf(&b, "| k→j | n | Koch bound | bandwidth bound |\n|---|---|---|---|\n")
	for _, pair := range [][2]int{{2, 1}, {3, 2}, {4, 2}} {
		k, j := pair[0], pair[1]
		n := 1 << 16
		koch := core.KochMeshOnMesh(k, j).Slowdown(float64(n), float64(n))
		band := core.BandwidthMeshOnMesh(k, j).Slowdown(float64(n), float64(n))
		fmt.Fprintf(&b, "| %d→%d | 2^16 | %.2f | %.2f |\n", k, j, koch, band)
	}
	fmt.Fprintf(&b, "\nThe distance-based tree-on-mesh bound (S ≥ Ω((n/lg^k n)^{1/(k+1)})) is\n")
	fmt.Fprintf(&b, "also implemented (core.KochTreeOnMesh) for completeness: a tree guest of\n")
	fmt.Fprintf(&b, "n = 2^16 on a 2-dimensional mesh has S ≥ %.2f. The bandwidth\n",
		core.KochTreeOnMesh(2).Slowdown(1<<16, 0))
	fmt.Fprintf(&b, "method cannot see it (trees and meshes share β-poor hosts), which the\n")
	fmt.Fprintf(&b, "paper acknowledges — its bounds are not tight for distance-dominated\n")
	fmt.Fprintf(&b, "pairs.\n")
	return b.String()
}

func patterns(r *experiment.Runner, o Options) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "\n## Conclusion extension: algorithms as communication patterns\n\n")
	fmt.Fprintf(&b, "Lemma 8 time bounds vs measured delivery for classic algorithm\n")
	fmt.Fprintf(&b, "patterns on equal-size (n=64) hosts:\n\n")
	pats := []func() netemu.Pattern{
		func() netemu.Pattern { return netemu.NewFFTPattern(6) },
		func() netemu.Pattern { return netemu.NewBitonicPattern(6) },
		func() netemu.Pattern { return netemu.NewPrefixPattern(6) },
		func() netemu.Pattern { return netemu.NewAllToAllPattern(64) },
	}
	hosts := []func() *netemu.Machine{
		func() *netemu.Machine { return netemu.NewDeBruijn(6) },
		func() *netemu.Machine { return netemu.NewMesh(2, 8) },
		func() *netemu.Machine { return netemu.NewLinearArray(64) },
	}
	type cell struct {
		pattern, host string
		bound         float64
		ticks         int
	}
	var futs []*experiment.Future[cell]
	for _, mkPat := range pats {
		for _, mkHost := range hosts {
			mkPat, mkHost := mkPat, mkHost
			key := fmt.Sprintf("patterns/%s/%s", mkPat().Name, mkHost().Name)
			futs = append(futs, experiment.Go(r, key, func(rng *rand.Rand) cell {
				p, h := mkPat(), mkHost()
				return cell{
					pattern: p.Name,
					host:    h.Name,
					bound:   netemu.PatternBound(p, h, rng.Int63()),
					ticks:   netemu.MeasurePattern(p, h, rng.Int63()),
				}
			}))
		}
	}
	fmt.Fprintf(&b, "| pattern | host | bound | measured |\n|---|---|---|---|\n")
	for _, f := range futs {
		got := f.Wait()
		fmt.Fprintf(&b, "| %s | %s | %.1f | %d |\n", got.pattern, got.host, got.bound, got.ticks)
	}
	fmt.Fprintf(&b, "\nDense patterns blow up on bandwidth-poor hosts; the sparse prefix\n")
	fmt.Fprintf(&b, "pattern stays cheap everywhere.\n")
	return b.String()
}

func faults(r *experiment.Runner, o Options) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "\n## Fault tolerance: butterfly vs multibutterfly\n\n")
	fmt.Fprintf(&b, "30%% of wires deleted; survival = processors in the largest\n")
	fmt.Fprintf(&b, "component, β measured on the survivor:\n\n")
	fmt.Fprintf(&b, "| machine | survival | surviving β |\n|---|---|---|\n")
	type trial struct {
		survival, beta float64
	}
	kinds := []string{"Butterfly", "Multibutterfly"}
	futs := make([]*experiment.Future[trial], len(kinds))
	for i, which := range kinds {
		which := which
		futs[i] = experiment.Go(r, "faults/"+which, func(rng *rand.Rand) trial {
			var m *netemu.Machine
			if which == "Butterfly" {
				m = netemu.NewButterfly(5)
			} else {
				m = netemu.NewMultibutterfly(5, rng.Int63())
			}
			d := netemu.DegradeEdges(m, 0.3, rng.Int63())
			surv := netemu.SurvivalFraction(d)
			res, err := netemu.Run(netemu.Survivor(d), netemu.RunSpec{Kind: netemu.RunBeta, Seed: rng.Int63()})
			if err != nil {
				panic(fmt.Sprintf("report: faults %s: %v", which, err))
			}
			return trial{survival: surv, beta: res.Beta}
		})
	}
	for i, which := range kinds {
		got := futs[i].Wait()
		fmt.Fprintf(&b, "| %s | %.3f | %.1f |\n", which, got.survival, got.beta)
	}
	fmt.Fprintf(&b, "\nThe multibutterfly's expander splitters keep both its processors and\n")
	fmt.Fprintf(&b, "its bandwidth; the butterfly's unique-path structure crumbles.\n")
	return b.String()
}

func resilience(r *experiment.Runner, o Options) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "\n## Resilience: bandwidth degradation under dynamic faults\n\n")
	fmt.Fprintf(&b, "Unlike the static audit above, these faults strike *mid-run*: a\n")
	fmt.Fprintf(&b, "continuous measurement near saturation loses the given fraction of its\n")
	fmt.Fprintf(&b, "wires a third of the way in, stranded packets reroute (with retry,\n")
	fmt.Fprintf(&b, "backoff, and TTL), and the delivery rate is compared across the pre-\n")
	fmt.Fprintf(&b, "and post-fault windows.\n\n")
	fracs := []float64{0, 0.1, 0.2, 0.3}
	ticks := 240
	if o.Quick {
		fracs = []float64{0, 0.2}
		ticks = 150
	}
	kinds := []string{"Butterfly", "Multibutterfly"}
	futs := make([]*experiment.Future[[]netemu.FaultPoint], len(kinds))
	for i, which := range kinds {
		which := which
		futs[i] = experiment.Go(r, "resilience/"+which, func(rng *rand.Rand) []netemu.FaultPoint {
			var m *netemu.Machine
			if which == "Butterfly" {
				m = netemu.NewButterfly(4)
			} else {
				m = netemu.NewMultibutterfly(4, rng.Int63())
			}
			res, err := netemu.Run(m, netemu.RunSpec{Kind: netemu.RunFaultCurve, FaultFracs: fracs, Ticks: ticks, Seed: rng.Int63()})
			if err != nil {
				panic(fmt.Sprintf("report: resilience %s: %v", which, err))
			}
			return res.FaultCurve
		})
	}
	fmt.Fprintf(&b, "| machine | wire faults | β pre | β post | retained | dropped | retried |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|\n")
	for i, which := range kinds {
		for _, p := range futs[i].Wait() {
			fmt.Fprintf(&b, "| %s | %.0f%% | %.1f | %.1f | %.2f | %d | %d |\n",
				which, 100*p.Frac, p.BetaIntact, p.BetaDegraded, p.Retention(), p.Dropped, p.Retried)
		}
	}
	fmt.Fprintf(&b, "\nBoth curves bend, but the multibutterfly's expander splitters leave it\n")
	fmt.Fprintf(&b, "more paths to reroute over, so it retains more of its bandwidth at\n")
	fmt.Fprintf(&b, "every fault level.\n")
	return b.String()
}
