package core

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/emulation"
	"repro/internal/growth"
	"repro/internal/topology"
)

func emulationDirect(guest, host *topology.Machine, rng *rand.Rand) float64 {
	return emulation.Direct(guest, host, 3, nil, rng).Slowdown
}

func mustBound(t *testing.T, guest, host Spec) Bound {
	t.Helper()
	b, err := NewBound(guest, host)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSpecString(t *testing.T) {
	if s := (Spec{Family: topology.MeshFamily, Dim: 3}).String(); s != "Mesh^3" {
		t.Fatalf("String = %q", s)
	}
	if s := (Spec{Family: topology.DeBruijnFamily}).String(); s != "DeBruijn" {
		t.Fatalf("String = %q", s)
	}
}

// The paper's §1 running example: de Bruijn guest on a 2-d mesh host —
// S_c = Ω(n/(√m lg n)) and max host m = O(lg² n).
func TestDeBruijnOnMeshHeadline(t *testing.T) {
	b := mustBound(t,
		Spec{Family: topology.DeBruijnFamily},
		Spec{Family: topology.MeshFamily, Dim: 2})
	if b.MaxHost.Kind != growth.Polynomial {
		t.Fatalf("max host kind = %v", b.MaxHost.Kind)
	}
	if b.MaxHost.M.Pow.Sign() != 0 || b.MaxHost.M.LogPow != growth.Int(2) {
		t.Fatalf("max host = %v, want lg^2 n", b.MaxHost.M)
	}
	if got := b.MaxHostString(); !strings.Contains(got, "lg^{2} |G|") {
		t.Fatalf("MaxHostString = %q", got)
	}
	// Numeric: S_c(n, m) = (n/lg n) / sqrt(m).
	n, m := 1024.0, 64.0
	want := (1024.0 / 10.0) / 8.0
	if got := b.CommunicationSlowdown(n, m); math.Abs(got-want) > 1e-9 {
		t.Fatalf("comm slowdown = %v, want %v", got, want)
	}
}

func TestTable1LinearArrayRow(t *testing.T) {
	rows := Table1(2, 3)
	var found *Row
	for i := range rows {
		r := &rows[i]
		if r.Bound.Guest.Family == topology.MeshFamily && r.Bound.Host.Family == topology.LinearArrayFamily {
			found = r
			break
		}
	}
	if found == nil {
		t.Fatal("mesh-on-array row missing")
	}
	// Mesh^2 on a linear array: |H| <= O(|G|^{1/2}).
	if !strings.Contains(found.MaxHost, "|G|^{1/2}") {
		t.Fatalf("MaxHost = %q, want |G|^{1/2}", found.MaxHost)
	}
	// Theorem 3's minimum time for mesh guests is Ω(|G|^{1/j}).
	if !strings.Contains(found.MinTime, "|G|^{1/2}") {
		t.Fatalf("MinTime = %q", found.MinTime)
	}
}

func TestTable1XTreeRow(t *testing.T) {
	rows := Table1(2, 3)
	for _, r := range rows {
		if r.Bound.Guest.Family == topology.MeshFamily && r.Bound.Host.Family == topology.XTreeFamily {
			// X-Tree host: |H| <= O(|G|^{1/2} lg |G|).
			if !strings.Contains(r.MaxHost, "|G|^{1/2} lg |G|") {
				t.Fatalf("MaxHost = %q", r.MaxHost)
			}
			return
		}
	}
	t.Fatal("row missing")
}

// Theorem 2: an X-Tree guest on a linear array (per-node bandwidths
// lg n / n vs 1/m) gives |H| <= O(|G|/lg |G|).
func TestTheorem2Shape(t *testing.T) {
	r := row(Spec{Family: topology.XTreeFamily}, Spec{Family: topology.LinearArrayFamily})
	if !strings.Contains(r.MaxHost, "|G| lg^{-1} |G|") {
		t.Fatalf("theorem 2 array row = %q", r.MaxHost)
	}
}

func TestTable1MeshHostRow(t *testing.T) {
	rows := Table1(2, 3)
	for _, r := range rows {
		if r.Bound.Guest.Family == topology.MeshFamily && r.Bound.Host.Family == topology.MeshFamily {
			// Mesh^3 host for Mesh^2 guest: |H| <= O(|G|^{3/2}) — i.e. any
			// same-size host passes the bandwidth test.
			if !strings.Contains(r.MaxHost, "|G|^{3/2}") {
				t.Fatalf("MaxHost = %q", r.MaxHost)
			}
			return
		}
	}
	t.Fatal("row missing")
}

func TestTable2SameShapesAsMeshGuests(t *testing.T) {
	// MoT/multigrid/pyramid guests have mesh-grade bandwidth, so their max
	// host sizes match Table 1's; only the minimum time differs (Θ(lg n)
	// instead of Θ(n^{1/j})).
	t1 := Table1(2, 3)
	t2 := Table2(2, 3)
	if len(t2) != len(t1) {
		t.Fatalf("row counts differ: %d vs %d", len(t2), len(t1))
	}
	for i := range t2 {
		if t2[i].MaxHost != t1[i].MaxHost {
			t.Fatalf("row %d: %q vs %q", i, t2[i].MaxHost, t1[i].MaxHost)
		}
		if !strings.Contains(t2[i].MinTime, "lg |G|") {
			t.Fatalf("row %d MinTime = %q, want Ω(lg |G|)", i, t2[i].MinTime)
		}
	}
}

func TestTable3DeBruijnRows(t *testing.T) {
	rows := Table3(2)
	// Per-node host bandwidths 1/m, m^{-1/2}, lg m/m against the guest's
	// 1/lg n give lg n, lg² n, and ~lg n respectively.
	checks := map[topology.Family]string{
		topology.LinearArrayFamily: "O(lg |G|)",
		topology.MeshFamily:        "lg^{2} |G|",
		topology.XTreeFamily:       "lg |G|",
	}
	seen := 0
	for _, r := range rows {
		if r.Bound.Guest.Family != topology.DeBruijnFamily {
			continue
		}
		if want, ok := checks[r.Bound.Host.Family]; ok {
			if !strings.Contains(r.MaxHost, want) {
				t.Errorf("de Bruijn on %v: MaxHost = %q, want %q", r.Bound.Host, r.MaxHost, want)
			}
			seen++
		}
	}
	if seen != len(checks) {
		t.Fatalf("only %d of %d host rows found", seen, len(checks))
	}
}

func TestTable3AllGuestsPresent(t *testing.T) {
	rows := Table3(2)
	guests := make(map[topology.Family]bool)
	for _, r := range rows {
		guests[r.Bound.Guest.Family] = true
	}
	for _, f := range []topology.Family{
		topology.ButterflyFamily, topology.DeBruijnFamily,
		topology.CubeConnectedCyclesFamily, topology.ShuffleExchangeFamily,
		topology.MultibutterflyFamily, topology.ExpanderFamily,
		topology.WeakHypercubeFamily,
	} {
		if !guests[f] {
			t.Errorf("guest %v missing from Table 3", f)
		}
	}
}

func TestWriteTables(t *testing.T) {
	var sb strings.Builder
	if err := WriteTable(&sb, "Table 1", Table1(2, 2)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table 1", "Mesh^2", "LinearArray", "Max host size"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q", want)
		}
	}
	sb.Reset()
	if err := WriteTable4(&sb, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Θ(n lg^{-1} n)") {
		t.Errorf("Table 4 output missing butterfly bandwidth:\n%s", sb.String())
	}
}

// WritePaperTable names each table by its id and (j, k), renders the same
// rows WriteTable and WriteTable4 do, and writes nothing for an unknown id.
func TestWritePaperTable(t *testing.T) {
	var got, want strings.Builder
	if err := WritePaperTable(&got, "2", 3, 1); err != nil {
		t.Fatal(err)
	}
	if err := WriteTable(&want, "Table 2: mesh-of-trees/multigrid/pyramid guests at j=3 (hosts at k=1)", Table2(3, 1)); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("table 2 at j=3, k=1:\n%s\nwant:\n%s", got.String(), want.String())
	}
	got.Reset()
	want.Reset()
	if err := WritePaperTable(&got, "4", 3, 1); err != nil {
		t.Fatal(err)
	}
	if err := WriteTable4(&want, 1); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("table 4 at k=1:\n%s\nwant:\n%s", got.String(), want.String())
	}
	got.Reset()
	if err := WritePaperTable(&got, "5", 2, 2); !errors.Is(err, ErrUnknownTable) || got.Len() != 0 {
		t.Errorf("table 5: err %v, wrote %q; want ErrUnknownTable and nothing", err, got.String())
	}
}

func TestCrossoverDeBruijnOnMesh(t *testing.T) {
	b := mustBound(t,
		Spec{Family: topology.DeBruijnFamily},
		Spec{Family: topology.MeshFamily, Dim: 2})
	n := 4096.0
	m, slow := b.CrossoverPoint(n)
	// Crossover where n/m = (n/lg n)/√m: m = lg² n = 144.
	if math.Abs(m-144) > 2 {
		t.Fatalf("crossover m = %.1f, want ~144", m)
	}
	if math.Abs(slow-n/m) > 1 {
		t.Fatalf("crossover slowdown = %.1f, want ~n/m = %.1f", slow, n/m)
	}
}

func TestCrossoverGrowsWithN(t *testing.T) {
	b := mustBound(t,
		Spec{Family: topology.DeBruijnFamily},
		Spec{Family: topology.MeshFamily, Dim: 2})
	m1, _ := b.CrossoverPoint(1 << 10)
	m2, _ := b.CrossoverPoint(1 << 20)
	// lg² n: 100 -> 400.
	if m2 < 3.5*m1 || m2 > 4.5*m1 {
		t.Fatalf("crossover scaled %0.1f -> %0.1f; want ~4x", m1, m2)
	}
}

func TestCrossoverSameClassPair(t *testing.T) {
	// Butterfly on butterfly: same bandwidth class, crossover at m = Θ(n).
	b := mustBound(t,
		Spec{Family: topology.ButterflyFamily},
		Spec{Family: topology.DeBruijnFamily})
	n := 4096.0
	m, _ := b.CrossoverPoint(n)
	if m < n/4 {
		t.Fatalf("same-class crossover m = %.1f, want Θ(n)", m)
	}
}

func TestCurveMonotonicity(t *testing.T) {
	b := mustBound(t,
		Spec{Family: topology.DeBruijnFamily},
		Spec{Family: topology.MeshFamily, Dim: 2})
	pts := b.Curve(4096, []float64{4, 16, 64, 256, 1024, 4096})
	for i := 1; i < len(pts); i++ {
		if pts[i].Load >= pts[i-1].Load {
			t.Fatal("load bound must fall with m")
		}
		if pts[i].Comm >= pts[i-1].Comm {
			t.Fatal("comm bound must fall with m")
		}
		// Load falls strictly faster than comm (that's why they cross).
		dropLoad := pts[i-1].Load / pts[i].Load
		dropComm := pts[i-1].Comm / pts[i].Comm
		if dropLoad <= dropComm {
			t.Fatalf("load should fall faster: %v vs %v", dropLoad, dropComm)
		}
	}
}

func TestNumericMaxHostCapsAtGuest(t *testing.T) {
	// Butterfly guest on de Bruijn host: bandwidth constraint vacuous up to
	// |G|, so the numeric max host is n itself.
	b := mustBound(t,
		Spec{Family: topology.ButterflyFamily},
		Spec{Family: topology.DeBruijnFamily})
	if got := b.NumericMaxHost(1 << 12); got != 1<<12 {
		t.Fatalf("NumericMaxHost = %v, want n", got)
	}
	// De Bruijn on a mesh is polynomially capped at lg² n.
	db := mustBound(t,
		Spec{Family: topology.DeBruijnFamily},
		Spec{Family: topology.MeshFamily, Dim: 2})
	got := db.NumericMaxHost(1 << 12)
	if math.Abs(got-144) > 2 {
		t.Fatalf("NumericMaxHost = %v, want 144", got)
	}
}

func TestNewBoundErrors(t *testing.T) {
	if _, err := NewBound(Spec{Family: topology.MeshFamily}, Spec{Family: topology.TreeFamily}); err == nil {
		t.Fatal("dimensionless mesh guest accepted")
	}
	if _, err := NewBound(Spec{Family: topology.TreeFamily}, Spec{Family: topology.MeshFamily}); err == nil {
		t.Fatal("dimensionless mesh host accepted")
	}
}

func TestVerifyEmulationDeBruijnOnMesh(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	guest := topology.DeBruijn(6)
	host := topology.Mesh(2, 4)
	check, err := VerifyEmulation(guest, host, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if check.N != 64 || check.M != 16 {
		t.Fatalf("sizes %d/%d", check.N, check.M)
	}
	if check.Predicted <= 0 {
		t.Fatal("no prediction")
	}
	// The theorem's direction: measured slowdown must not be far below the
	// predicted lower bound.
	if check.Ratio < 0.5 {
		t.Fatalf("measured %.1f far below predicted %.1f", check.Measured, check.Predicted)
	}
}

func TestVerifyEmulationRespectsBoundAcrossPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pairs := []struct {
		guest, host *topology.Machine
	}{
		{topology.Mesh(2, 8), topology.Mesh(2, 4)},
		{topology.Ring(32), topology.Ring(8)},
		{topology.DeBruijn(6), topology.LinearArray(16)},
		{topology.Butterfly(3), topology.Tree(4)},
	}
	for _, p := range pairs {
		check, err := VerifyEmulation(p.guest, p.host, 2, rng)
		if err != nil {
			t.Fatalf("%s on %s: %v", p.guest.Name, p.host.Name, err)
		}
		if check.Ratio < 0.4 {
			t.Errorf("%s on %s: measured %.2f below bound %.2f",
				p.guest.Name, p.host.Name, check.Measured, check.Predicted)
		}
	}
}

func TestHostSizeGridSinglePoint(t *testing.T) {
	// Regression: -points 1 used to compute 0/0 in the geometric step and
	// emit a NaN host size.
	sizes, err := HostSizeGrid(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 1 || sizes[0] != 1024 {
		t.Fatalf("grid = %v, want [1024]", sizes)
	}
	for _, s := range sizes {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("non-finite size %v", s)
		}
	}
}

func TestHostSizeGridTwoPoints(t *testing.T) {
	sizes, err := HostSizeGrid(1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 2 || sizes[0] != 4 || sizes[1] != 1024 {
		t.Fatalf("grid = %v, want [4 1024]", sizes)
	}
}

func TestHostSizeGridDedupesRoundedSizes(t *testing.T) {
	// At small n a dense grid rounds neighbouring geometric steps onto the
	// same integer; the grid must not repeat sizes.
	sizes, err := HostSizeGrid(16, 12)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float64]bool{}
	for _, s := range sizes {
		if seen[s] {
			t.Fatalf("duplicate size %v in %v", s, sizes)
		}
		seen[s] = true
		if s < 4 || s > 16 {
			t.Fatalf("size %v outside [4,16]", s)
		}
	}
	if sizes[0] != 4 || sizes[len(sizes)-1] != 16 {
		t.Fatalf("grid endpoints %v", sizes)
	}
}

func TestHostSizeGridRejectsBadInput(t *testing.T) {
	if _, err := HostSizeGrid(1024, 0); err == nil {
		t.Fatal("points=0 accepted")
	}
	if _, err := HostSizeGrid(1024, -3); err == nil {
		t.Fatal("negative points accepted")
	}
	if _, err := HostSizeGrid(2, 4); err == nil {
		t.Fatal("guest below minimum host size accepted")
	}
}
