package traffic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/multigraph"
)

func TestSymmetricSample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewSymmetric(10)
	counts := make(map[Message]int)
	for i := 0; i < 9000; i++ {
		m := s.Sample(rng)
		if m.Src == m.Dst {
			t.Fatal("self-message sampled")
		}
		if m.Src < 0 || m.Src >= 10 || m.Dst < 0 || m.Dst >= 10 {
			t.Fatalf("out of range message %+v", m)
		}
		counts[m]++
	}
	// All 90 ordered pairs should appear, roughly uniformly (mean 100).
	if len(counts) != 90 {
		t.Fatalf("saw %d distinct pairs, want 90", len(counts))
	}
	for m, c := range counts {
		if c < 40 || c > 200 {
			t.Fatalf("pair %+v count %d far from uniform mean 100", m, c)
		}
	}
}

func TestSymmetricGraph(t *testing.T) {
	s := NewSymmetric(6)
	g := s.Graph()
	if g.E() != 15 {
		t.Fatalf("E = %d, want 15 (K6)", g.E())
	}
	if s.N() != 6 || s.Name() == "" {
		t.Fatal("metadata wrong")
	}
}

func TestSymmetricTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewSymmetric(1)
}

func TestQuasiSymmetric(t *testing.T) {
	pairs := []Message{{0, 1}, {2, 3}, {3, 2}}
	q := &QuasiSymmetric{n: 4, pairs: pairs}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		m := q.Sample(rng)
		found := false
		for _, p := range pairs {
			if p == m {
				found = true
			}
		}
		if !found {
			t.Fatalf("sampled disallowed pair %+v", m)
		}
	}
	g := q.Graph()
	if g.Multiplicity(2, 3) != 2 { // both directions collapse onto one edge
		t.Fatalf("mult(2,3) = %d, want 2", g.Multiplicity(2, 3))
	}
}

func TestRandomQuasiSymmetricDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := RandomQuasiSymmetric(100, 50, 0.5, rng)
	// Expect about 0.5 * 50 * 49 = 1225 pairs.
	if got := len(q.Pairs()); got < 900 || got > 1600 {
		t.Fatalf("pair count %d far from expectation 1225", got)
	}
	// All pairs inside a 50-vertex subset.
	verts := make(map[int]bool)
	for _, p := range q.Pairs() {
		verts[p.Src] = true
		verts[p.Dst] = true
	}
	if len(verts) > 50 {
		t.Fatalf("pairs span %d vertices, want <= 50", len(verts))
	}
}

func TestPermutation(t *testing.T) {
	p := NewPermutation([]int{1, 2, 0})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		m := p.Sample(rng)
		if m.Dst != (m.Src+1)%3 {
			t.Fatalf("bad sample %+v", m)
		}
	}
	if p.Graph().E() != 3 {
		t.Fatalf("graph E = %d, want 3", p.Graph().E())
	}
}

func TestPermutationValidation(t *testing.T) {
	for _, bad := range [][]int{
		{0, 1},    // fixed points
		{1, 1, 0}, // not a permutation
		{2, 0},    // out of range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("perm %v did not panic", bad)
				}
			}()
			NewPermutation(bad)
		}()
	}
}

func TestRandomPermutationFixedPointFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		p := RandomPermutation(8, rng)
		for i := 0; i < 200; i++ {
			if m := p.Sample(rng); m.Src == m.Dst {
				t.Fatal("fixed point sampled")
			}
		}
	}
}

func TestBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := Batch(NewSymmetric(5), 17, rng)
	if len(b) != 17 {
		t.Fatalf("batch size %d, want 17", len(b))
	}
}

func TestKrsMembershipRejections(t *testing.T) {
	// Too sparse.
	sparse := multigraph.New(10)
	sparse.AddSimpleEdge(0, 1)
	if err := KrsMembership(sparse, 1, 0.4); err == nil {
		t.Fatal("sparse graph accepted")
	}
	// Over-multiplied pair.
	fat := NewSymmetric(4).Graph()
	fat.AddEdge(0, 1, 5)
	if err := KrsMembership(fat, 2, 0.4); err == nil {
		t.Fatal("over-multiplied pair accepted")
	}
	if err := KrsMembership(multigraph.New(1), 1, 0.1); err == nil {
		t.Fatal("single vertex accepted")
	}
	if err := KrsMembership(NewSymmetric(3).Graph(), 0, 0.1); err == nil {
		t.Fatal("s=0 accepted")
	}
}

// Property: every sampled message from any distribution is a valid
// non-self pair within range.
func TestPropertySamplesValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		dists := []Distribution{
			NewSymmetric(n),
			RandomPermutation(n, rng),
			RandomQuasiSymmetric(n, 2+rng.Intn(n-1), 0.5, rng),
		}
		for _, d := range dists {
			for i := 0; i < 50; i++ {
				m := d.Sample(rng)
				if m.Src == m.Dst || m.Src < 0 || m.Src >= n || m.Dst < 0 || m.Dst >= n {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the symmetric traffic graph of n endpoints is a member of
// K_{n,1} at density ~1/2 — the class the paper's lemmas use.
func TestPropertySymmetricIsKn1(t *testing.T) {
	for n := 2; n <= 40; n += 7 {
		g := NewSymmetric(n).Graph()
		if err := KrsMembership(g, 1, 0.4); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func localityRing(n int) *multigraph.Multigraph {
	g := multigraph.New(n)
	for i := 0; i < n; i++ {
		g.AddSimpleEdge(i, (i+1)%n)
	}
	return g
}

func TestLocalitySamplesPreferNear(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	g := localityRing(32)
	l := NewLocality(g, 0.3)
	near, far := 0, 0
	for i := 0; i < 4000; i++ {
		m := l.Sample(rng)
		if m.Src == m.Dst {
			t.Fatal("self message")
		}
		d := g.BFS(m.Src)[m.Dst]
		if d <= 2 {
			near++
		}
		if d >= 8 {
			far++
		}
	}
	if near < 10*far {
		t.Fatalf("near %d vs far %d: locality not biased enough", near, far)
	}
}

func TestLocalityGraphWeightsDecay(t *testing.T) {
	g := localityRing(16)
	l := NewLocality(g, 0.5)
	tg := l.Graph()
	w1 := tg.Multiplicity(0, 1) // distance 1
	w3 := tg.Multiplicity(0, 3) // distance 3
	if w1 <= w3 {
		t.Fatalf("weight at distance 1 (%d) should exceed distance 3 (%d)", w1, w3)
	}
	if l.N() != 16 || l.Name() == "" {
		t.Fatal("metadata wrong")
	}
}

func TestLocalityValidation(t *testing.T) {
	for _, decay := range []float64{0, 1, -0.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("decay %v accepted", decay)
				}
			}()
			NewLocality(localityRing(8), decay)
		}()
	}
}
