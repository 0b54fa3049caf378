package core

import (
	"math"
	"strings"
	"testing"
)

func TestKochTreeOnMesh(t *testing.T) {
	b := KochTreeOnMesh(2)
	if b.Kind != DistanceBased {
		t.Fatal("wrong kind")
	}
	// At n = 2^20: (2^20 / 400)^{1/3} ≈ 13.8.
	got := b.Slowdown(1<<20, 0)
	want := math.Pow(float64(1<<20)/400, 1.0/3.0)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("slowdown = %v, want %v", got, want)
	}
	if !strings.Contains(b.Statement, "tree guests") {
		t.Fatalf("statement = %q", b.Statement)
	}
}

func TestKochMeshOnMesh(t *testing.T) {
	b := KochMeshOnMesh(3, 2)
	// Exponent (3-2)/(2*3) = 1/6: at m = 2^12, slowdown = 2^2 = 4.
	if got := b.Slowdown(0, 1<<12); math.Abs(got-4) > 1e-9 {
		t.Fatalf("slowdown = %v, want 4", got)
	}
}

func TestKochPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	KochMeshOnMesh(2, 2)
}

// The paper's §1.2 claim, executable: for mesh-on-mesh pairs the bandwidth
// method reproduces the congestion-based bound exactly at equal sizes.
func TestBandwidthMatchesKochAtEqualSize(t *testing.T) {
	for _, pair := range [][2]int{{2, 1}, {3, 1}, {3, 2}, {4, 2}, {4, 3}} {
		k, j := pair[0], pair[1]
		for _, n := range []float64{1 << 10, 1 << 16, 1 << 20} {
			koch := KochMeshOnMesh(k, j).Slowdown(n, n)
			band := BandwidthMeshOnMesh(k, j).Slowdown(n, n)
			if ratio := band / koch; ratio < 1/1.01 || ratio > 1.01 {
				t.Fatalf("k=%d j=%d n=%v: koch %v vs bandwidth %v", k, j, n, koch, band)
			}
		}
	}
}

func TestBaselineKindString(t *testing.T) {
	if DistanceBased.String() != "distance-based" || CongestionBased.String() != "congestion-based" {
		t.Fatal("kind strings wrong")
	}
	if BaselineKind(7).String() == "" {
		t.Fatal("unknown kind blank")
	}
}
