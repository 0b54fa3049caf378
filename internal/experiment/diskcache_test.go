package experiment

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/topology"
)

// The disk-cache contract: a warm run returns values bit-identical to the
// cold run that populated it, wrong-seed and corrupt entries degrade to
// misses, and a cache failure never fails the measurement.

func betaOn(t *testing.T, seed int64, dir string) bandwidth.Measurement {
	t.Helper()
	r := New(seed, 2)
	if dir != "" {
		if _, err := r.AttachDiskCache(dir); err != nil {
			t.Fatal(err)
		}
	}
	return r.BetaFuture(topology.MeshFamily, 2, 36, bandwidth.MeasureOptions{}).Wait()
}

func TestDiskCacheHitIsBitIdentical(t *testing.T) {
	dir := t.TempDir()
	cold := betaOn(t, 9, dir)

	r := New(9, 2)
	c, err := r.AttachDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := r.BetaFuture(topology.MeshFamily, 2, 36, bandwidth.MeasureOptions{}).Wait()
	if hits, misses := c.Counts(); hits != 1 || misses != 0 {
		t.Fatalf("warm run: %d hits, %d misses, want 1/0", hits, misses)
	}
	nocache := betaOn(t, 9, "")

	for _, got := range []bandwidth.Measurement{warm, nocache} {
		if got.Beta != cold.Beta || got.Dist != cold.Dist || len(got.RateByLoad) != len(cold.RateByLoad) {
			t.Fatalf("measurement diverged: got %+v, want %+v", got, cold)
		}
		for k, v := range cold.RateByLoad {
			if got.RateByLoad[k] != v {
				t.Fatalf("RateByLoad[%d] = %v, want %v", k, got.RateByLoad[k], v)
			}
		}
	}
	// The hit path must still rebuild the machine (sections use it).
	if warm.Machine == nil || warm.Machine.N() != cold.Machine.N() {
		t.Fatal("warm hit did not rebuild the machine")
	}
}

func TestDiskCacheKeyedBySeed(t *testing.T) {
	dir := t.TempDir()
	betaOn(t, 9, dir)

	r := New(10, 2)
	c, err := r.AttachDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.BetaFuture(topology.MeshFamily, 2, 36, bandwidth.MeasureOptions{}).Wait()
	if hits, _ := c.Counts(); hits != 0 {
		t.Fatalf("different seed hit the cache %d times", hits)
	}
}

func TestDiskCacheCorruptEntriesAreMisses(t *testing.T) {
	dir := t.TempDir()
	want := betaOn(t, 9, dir)

	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("expected cache files, got %v (%v)", files, err)
	}
	corruptions := []struct {
		name string
		data []byte
	}{
		{"truncated", []byte(`{"key": "beta/`)},
		{"not json", []byte("\x00\x01garbage")},
		{"wrong key", []byte(`{"key": "something/else", "value": {"beta": 1}}`)},
		{"wrong value type", []byte(`{"key": "x", "value": "a string"}`)},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			for _, f := range files {
				if err := os.WriteFile(f, c.data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			r := New(9, 2)
			dc, err := r.AttachDiskCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			got := r.BetaFuture(topology.MeshFamily, 2, 36, bandwidth.MeasureOptions{}).Wait()
			if hits, misses := dc.Counts(); hits != 0 || misses == 0 {
				t.Fatalf("corrupt entry served: %d hits, %d misses", hits, misses)
			}
			if got.Beta != want.Beta {
				t.Fatalf("remeasured β %v, want %v", got.Beta, want.Beta)
			}
		})
	}
	// The remeasurement rewrote a good entry: next run hits again.
	r := New(9, 2)
	dc, err := r.AttachDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.BetaFuture(topology.MeshFamily, 2, 36, bandwidth.MeasureOptions{}).Wait()
	if hits, _ := dc.Counts(); hits != 1 {
		t.Fatal("rewritten entry did not hit")
	}
}

// TestDiskCacheStaleKeyFormatDegradesToMiss is the key-migration
// regression: entries written under the pre-RunSpec ad-hoc key format
// ("beta/Mesh^2/..." identity strings) must read as clean misses under the
// canonical-key scheme — never a wrong hit, never an error — and get
// overwritten by fresh entries that then hit.
func TestDiskCacheStaleKeyFormatDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A plausible old-format entry, stored under its own (old) key.
	oldKey := "beta/Mesh^2/2/36/lf=[2 4 8],t=2,s=0/seed=9/m4"
	c.store(oldKey, betaEntry{Dist: "symmetric", Beta: 99, RateByLoad: map[int]float64{2: 99}})

	// A fresh run over the same directory must miss (different canonical
	// key → different file), measure, and store its own entry...
	r := New(9, 2)
	dc, err := r.AttachDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := r.BetaFuture(topology.MeshFamily, 2, 36, bandwidth.MeasureOptions{}).Wait()
	if hits, _ := dc.Counts(); hits != 0 {
		t.Fatalf("stale-format entry served as a hit (%d hits)", hits)
	}
	if got.Beta == 99 {
		t.Fatal("stale-format value leaked into a fresh measurement")
	}
	// ...which the next run hits.
	r2 := New(9, 2)
	dc2, err := r2.AttachDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := r2.BetaFuture(topology.MeshFamily, 2, 36, bandwidth.MeasureOptions{}).Wait()
	if hits, _ := dc2.Counts(); hits != 1 {
		t.Fatal("fresh canonical entry did not hit")
	}
	if warm.Beta != got.Beta {
		t.Fatalf("warm β %v != cold β %v", warm.Beta, got.Beta)
	}
}
