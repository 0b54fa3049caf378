package core

import (
	"errors"
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/topology"
)

// This file regenerates the paper's Tables 1–3: maximum host sizes for
// efficient emulation, per guest/host family pair, derived mechanically
// from the Table 4 bandwidths via growth.Solve. Table 1 covers mesh-like
// guests (Theorems 2–3 territory), Table 2 the hierarchical guests
// (mesh-of-trees, multigrids, pyramids; Theorem 4), and Table 3 the
// hypercubic guests (Theorem 5).

// Row is one table entry.
type Row struct {
	Bound Bound
	// MinTime renders the theorem's minimum guest time Ω(λ(G)).
	MinTime string
	// MaxHost renders the maximum host size in |G| notation.
	MaxHost string
}

func row(guest, host Spec) Row {
	b, err := NewBound(guest, host)
	if err != nil {
		panic(err) // the fixed table specs below are always valid
	}
	return Row{
		Bound:   b,
		MinTime: "Ω(" + b.MinGuestTime.InVariable("|G|") + ")",
		MaxHost: b.MaxHostString(),
	}
}

// hostSpecs is the host column of all three tables: the machines the paper
// compares as emulation hosts. Dimensioned hosts use the given k.
func hostSpecs(k int) []Spec {
	return []Spec{
		{Family: topology.LinearArrayFamily},
		{Family: topology.TreeFamily},
		{Family: topology.GlobalBusFamily},
		{Family: topology.WeakPPNFamily},
		{Family: topology.XTreeFamily},
		{Family: topology.MeshFamily, Dim: k},
		{Family: topology.PyramidFamily, Dim: k},
		{Family: topology.MultigridFamily, Dim: k},
		{Family: topology.MeshOfTreesFamily, Dim: k},
		{Family: topology.XGridFamily, Dim: k},
	}
}

// Table1 returns the maximum host sizes for emulating j-dimensional
// meshes, tori, and X-grids on each host (dimensioned hosts at dimension
// k).
func Table1(j, k int) []Row {
	guests := []Spec{
		{Family: topology.MeshFamily, Dim: j},
		{Family: topology.TorusFamily, Dim: j},
		{Family: topology.XGridFamily, Dim: j},
	}
	return crossRows(guests, hostSpecs(k))
}

// Table2 returns the maximum host sizes for emulating j-dimensional
// meshes of trees, multigrids, and pyramids.
func Table2(j, k int) []Row {
	guests := []Spec{
		{Family: topology.MeshOfTreesFamily, Dim: j},
		{Family: topology.MultigridFamily, Dim: j},
		{Family: topology.PyramidFamily, Dim: j},
	}
	return crossRows(guests, hostSpecs(k))
}

// Table3 returns the maximum host sizes for emulating butterflies,
// de Bruijn graphs, cube-connected cycles, shuffle-exchanges,
// multibutterflies, expanders, and weak hypercubes.
func Table3(k int) []Row {
	guests := []Spec{
		{Family: topology.ButterflyFamily},
		{Family: topology.DeBruijnFamily},
		{Family: topology.CubeConnectedCyclesFamily},
		{Family: topology.ShuffleExchangeFamily},
		{Family: topology.MultibutterflyFamily},
		{Family: topology.ExpanderFamily},
		{Family: topology.WeakHypercubeFamily},
	}
	return crossRows(guests, hostSpecs(k))
}

func crossRows(guests, hosts []Spec) []Row {
	out := make([]Row, 0, len(guests)*len(hosts))
	for _, g := range guests {
		for _, h := range hosts {
			out = append(out, row(g, h))
		}
	}
	return out
}

// ErrUnknownTable is WritePaperTable's error for an id other than "1" to
// "4".
var ErrUnknownTable = errors.New("unknown table")

// WritePaperTable renders the paper's table id ("1" to "4") with guests at
// dimension j and hosts at dimension k: the one rendering nettables prints
// and GET /v1/tables/{id} serves. An unknown id writes nothing and returns
// an error wrapping ErrUnknownTable.
func WritePaperTable(w io.Writer, id string, j, k int) error {
	switch id {
	case "1":
		return WriteTable(w, fmt.Sprintf("Table 1: mesh/torus/X-grid guests at j=%d (hosts at k=%d)", j, k), Table1(j, k))
	case "2":
		return WriteTable(w, fmt.Sprintf("Table 2: mesh-of-trees/multigrid/pyramid guests at j=%d (hosts at k=%d)", j, k), Table2(j, k))
	case "3":
		return WriteTable(w, fmt.Sprintf("Table 3: hypercubic guests (hosts at k=%d)", k), Table3(k))
	case "4":
		return WriteTable4(w, k)
	}
	return fmt.Errorf("%w %q (want 1, 2, 3, or 4)", ErrUnknownTable, id)
}

// WriteTable renders rows as an aligned text table.
func WriteTable(w io.Writer, title string, rows []Row) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Guest\tHost\tMin guest time\tMax host size")
	for _, r := range rows {
		fmt.Fprintf(tw, "%v\t%v\t%s\t%s\n", r.Bound.Guest, r.Bound.Host, r.MinTime, r.MaxHost)
	}
	return tw.Flush()
}

// Table4Rows renders the reproduced Table 4 (β and λ per machine family).
type Table4Row struct {
	Spec         Spec
	Beta, Lambda string
}

// Table4 lists the analytic bandwidths for every family in the paper's
// Table 4 (dimensioned families at dimension k).
func Table4(k int) []Table4Row {
	specs := []Spec{
		{Family: topology.LinearArrayFamily},
		{Family: topology.GlobalBusFamily},
		{Family: topology.TreeFamily},
		{Family: topology.WeakPPNFamily},
		{Family: topology.XTreeFamily},
		{Family: topology.MeshFamily, Dim: k},
		{Family: topology.TorusFamily, Dim: k},
		{Family: topology.XGridFamily, Dim: k},
		{Family: topology.MeshOfTreesFamily, Dim: k},
		{Family: topology.MultigridFamily, Dim: k},
		{Family: topology.PyramidFamily, Dim: k},
		{Family: topology.ButterflyFamily},
		{Family: topology.CubeConnectedCyclesFamily},
		{Family: topology.ShuffleExchangeFamily},
		{Family: topology.DeBruijnFamily},
		{Family: topology.MultibutterflyFamily},
		{Family: topology.ExpanderFamily},
		{Family: topology.WeakHypercubeFamily},
	}
	out := make([]Table4Row, 0, len(specs))
	for _, s := range specs {
		a, err := s.Analytic()
		if err != nil {
			panic(err)
		}
		out = append(out, Table4Row{
			Spec:   s,
			Beta:   "Θ(" + a.Beta.String() + ")",
			Lambda: "Θ(" + a.Lambda.String() + ")",
		})
	}
	return out
}

// WriteTable4 renders the Table 4 reproduction.
func WriteTable4(w io.Writer, k int) error {
	if _, err := fmt.Fprintln(w, "Table 4: β and λ for network machines"); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Machine\tβ\tλ")
	for _, r := range Table4(k) {
		fmt.Fprintf(tw, "%v\t%s\t%s\n", r.Spec, r.Beta, r.Lambda)
	}
	return tw.Flush()
}
