package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// around returns n runs centred on v, spread ±jitter·v in a fixed
// zig-zag so quartiles are predictable.
func around(v, jitter float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		f := float64(i%5-2) / 2 // -1, -0.5, 0, 0.5, 1
		out[i] = v * (1 + jitter*f)
	}
	return out
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestJudge(t *testing.T) {
	cases := []struct {
		name           string
		parent, change []float64
		lowerBetter    bool
		bound          float64
		want           string
	}{
		{"clear latency win", around(100, 0.01, 10), around(90, 0.01, 10), true, 0.1, Win},
		{"clear throughput win", around(1000, 0.01, 10), around(1100, 0.01, 10), false, 0.1, Win},
		{"8 of 10 pairs is not a win",
			around(100, 0.01, 10),
			append(around(90, 0.01, 8), 101, 101), true, 0.1, Within},
		{"every pair won but inside the parent's spread",
			[]float64{100, 104, 96, 102, 98, 100, 104, 96, 102, 98},
			[]float64{99, 103, 95, 101, 97, 99, 103, 95, 101, 97}, true, 0.1, Within},
		{"worse beyond the bound", around(100, 0.01, 10), around(115, 0.01, 10), true, 0.1, Regressed},
		{"throughput drop beyond the bound", around(1000, 0.01, 10), around(850, 0.01, 10), false, 0.1, Regressed},
		{"worse within the bound", around(100, 0.01, 10), around(105, 0.01, 10), true, 0.1, Within},
		{"spread wider than the bound", around(100, 0.4, 10), around(102, 0.4, 10), true, 0.1, Unresolved},
		{"wide spread, but every change run beats every parent run",
			[]float64{100, 100, 100, 100, 100, 100, 100, 100, 200, 200},
			repeat(99, 10), true, 0.1, Within},
		{"too few pairs", around(100, 0.01, 5), around(50, 0.01, 5), true, 0.1, TooFew},
		{"unbounded metric gets worse", around(100, 0.01, 10), around(130, 0.01, 10), true, -1, Loss},
		{"unbounded metric, no clear direction", around(100, 0.2, 10), around(101, 0.2, 10), true, -1, Unresolved},
		{"unbounded metric improves", around(100, 0.01, 10), around(70, 0.01, 10), true, -1, Win},
		{"metric not exercised", repeat(0, 10), repeat(0, 10), true, -1, NotUsed},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			j := judge(c.parent, c.change, c.lowerBetter, c.bound)
			if j.verdict != c.want {
				t.Errorf("verdict %s, want %s (parent %+v, change %+v, wins %d/%d, worse %.3f)",
					j.verdict, c.want, j.parent, j.change, j.wins, j.pairs, j.worse)
			}
		})
	}
}

// writeRuns writes n result files for one side.
func writeRuns(t *testing.T, dir, workload string, values func(i int) float64, n int) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		doc := map[string]any{
			"workload": workload, "seed": i + 1, "trace": false, "failed": 0,
			"metrics": map[string]any{"results_per_s": map[string]any{"value": values(i), "unit": "1/s"}},
		}
		b, _ := json.Marshal(doc)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace0.json", workload, i+1)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"results_per_s","unit":"1/s","better":"higher","bound":0.1}],"per_layer":[]}`), 0o644)
	par, chg := filepath.Join(dir, "parent"), filepath.Join(dir, "change")
	writeRuns(t, par, "sweep", func(i int) float64 { return 1000 + float64(i%3) }, 10)
	writeRuns(t, chg, "sweep", func(i int) float64 { return 800 + float64(i%3) }, 10)
	writeRuns(t, par, "hot-read", func(i int) float64 { return 2000 + float64(i%3) }, 10)
	writeRuns(t, chg, "hot-read", func(i int) float64 { return 2001 + float64(i%3) }, 10)

	var out bytes.Buffer
	regressed, err := compare(&out, bench, par, chg)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Errorf("a 20%% throughput drop did not count as a regression:\n%s", out.String())
	}
	for _, want := range []string{"sweep", Regressed, "hot-read", Within} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
