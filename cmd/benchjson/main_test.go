package main

import (
	"bytes"
	"strings"
	"testing"
)

// twoPackages is a `go test -bench` stream over two packages that both
// define BenchmarkShared, with a -count 2 repeat in the first.
const twoPackages = `goos: linux
goarch: amd64
pkg: repro/internal/routing
cpu: Test CPU
BenchmarkShared-2   	     100	      1000 ns/op	      16 B/op	       1 allocs/op
BenchmarkShared-2   	     100	      3000 ns/op	      48 B/op	       3 allocs/op
BenchmarkSimStep/Mesh-64-2   	      10	       500 ns/op
PASS
ok  	repro/internal/routing	1.0s
goos: linux
goarch: amd64
pkg: repro/internal/runspec
cpu: Test CPU
BenchmarkShared-2   	      50	     9000 ns/op
Benchmark log line that is not a result
PASS
ok  	repro/internal/runspec	1.0s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(twoPackages))
	if err != nil {
		t.Fatal(err)
	}
	if got.Goos != "linux" || got.Goarch != "amd64" || got.CPU != "Test CPU" {
		t.Errorf("header = %q/%q/%q", got.Goos, got.Goarch, got.CPU)
	}
	want := []benchResult{
		{Pkg: "repro/internal/routing", Name: "BenchmarkShared", Runs: 200, NsPerOp: 2000, BytesPerOp: 32, AllocsPerOp: 2},
		{Pkg: "repro/internal/routing", Name: "BenchmarkSimStep/Mesh-64", Runs: 10, NsPerOp: 500},
		{Pkg: "repro/internal/runspec", Name: "BenchmarkShared", Runs: 50, NsPerOp: 9000},
	}
	if len(got.Benchmarks) != len(want) {
		t.Fatalf("%d rows, want %d: %+v", len(got.Benchmarks), len(want), got.Benchmarks)
	}
	for i, w := range want {
		g := *got.Benchmarks[i]
		g.samples = 0
		if g != w {
			t.Errorf("row %d = %+v, want %+v", i, g, w)
		}
	}
}

func TestParseBenchLine(t *testing.T) {
	for _, c := range []struct {
		line string
		want *benchResult
	}{
		{"BenchmarkX-8   123   456.5 ns/op   1024 B/op   3 allocs/op",
			&benchResult{Name: "BenchmarkX", Runs: 123, NsPerOp: 456.5, BytesPerOp: 1024, AllocsPerOp: 3}},
		// A sub-benchmark name keeps its own dashes; only the numeric
		// GOMAXPROCS suffix goes.
		{"BenchmarkY/WeakHypercube-1024-2   10   7 ns/op",
			&benchResult{Name: "BenchmarkY/WeakHypercube-1024", Runs: 10, NsPerOp: 7}},
		{"BenchmarkZ   10   7 ns/op", &benchResult{Name: "BenchmarkZ", Runs: 10, NsPerOp: 7}},
		{"BenchmarkNoTime-2   10   7 B/op", nil},
		{"BenchmarkShort-2   10", nil},
		{"Benchmark results follow later", nil},
	} {
		got := parseBenchLine(c.line)
		if (got == nil) != (c.want == nil) || got != nil && *got != *c.want {
			t.Errorf("parseBenchLine(%q) = %+v, want %+v", c.line, got, c.want)
		}
	}
}

func TestCheckRegressions(t *testing.T) {
	row := func(pkg, name string, ns float64) *benchResult {
		return &benchResult{Pkg: pkg, Name: name, NsPerOp: ns}
	}
	const a, b = "repro/a", "repro/b"
	committed := benchFile{Benchmarks: []*benchResult{
		row(a, "BenchmarkSimStep", 100),
		row(b, "BenchmarkSimStep", 1000),
		row(a, "BenchmarkSimStepGone", 100),
		row(a, "BenchmarkOther", 100),
	}}
	for _, c := range []struct {
		name   string
		fresh  []*benchResult
		prefix string
		ok     bool
		report []string
	}{
		{"within threshold", []*benchResult{row(a, "BenchmarkSimStep", 120), row(b, "BenchmarkSimStep", 1100)},
			"BenchmarkSimStep", true, []string{"ok       repro/a BenchmarkSimStep", "MISSING  repro/a BenchmarkSimStepGone"}},
		{"regression", []*benchResult{row(a, "BenchmarkSimStep", 130)},
			"BenchmarkSimStep", false, []string{"REGRESSED repro/a BenchmarkSimStep"}},
		// The row of another package must not stand in for this one: a
		// slow b row compared by name alone against a's 100 ns would fail.
		{"same name other package", []*benchResult{row(b, "BenchmarkSimStep", 1200)},
			"BenchmarkSimStep", true, []string{"ok       repro/b BenchmarkSimStep", "MISSING  repro/a BenchmarkSimStep "}},
		{"new row only", []*benchResult{row("repro/c", "BenchmarkSimStep", 5)},
			"BenchmarkSimStep", false, []string{"NEW      repro/c BenchmarkSimStep", "no benchmarks matching"}},
		{"prefix list", []*benchResult{row(a, "BenchmarkOther", 200), row(a, "BenchmarkSimStep", 100)},
			"BenchmarkSimStep,BenchmarkOther", false, []string{"REGRESSED repro/a BenchmarkOther"}},
		{"prefix excludes", []*benchResult{row(a, "BenchmarkOther", 200)},
			"BenchmarkSimStep", false, []string{"no benchmarks matching"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var w bytes.Buffer
			ok := checkRegressions(&w, benchFile{Benchmarks: c.fresh}, committed, "BENCH.json", c.prefix, 0.25)
			if ok != c.ok {
				t.Errorf("ok = %v, want %v\n%s", ok, c.ok, w.String())
			}
			for _, r := range c.report {
				if !strings.Contains(w.String(), r) {
					t.Errorf("report lacks %q:\n%s", r, w.String())
				}
			}
		})
	}
}
