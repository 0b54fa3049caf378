// Command benchjson converts `go test -bench` output on stdin into a JSON
// benchmark record on stdout, so benchmark trajectories can be committed
// and diffed (BENCH_routing.json) and uploaded as CI artifacts.
//
// It parses the standard benchmark line format
//
//	BenchmarkName-8   123   456789 ns/op   1024 B/op   3 allocs/op
//
// plus the goos/goarch/pkg/cpu header lines, and emits
//
//	{"goos": ..., "goarch": ..., "cpu": ..., "benchmarks": [
//	  {"pkg": ..., "name": ..., "runs": ..., "ns_per_op": ...,
//	   "bytes_per_op": ..., "allocs_per_op": ...}, ...]}
//
// Each row carries the package of the most recent `pkg:` header, so one
// stream may span several `go test` runs. Lines that are not benchmark
// results (PASS, ok, test logs) are ignored, so the raw `go test` stream
// can be piped straight through:
//
//	go test ./internal/routing/ -run '^$' -bench . -benchmem | benchjson
//
// A row is identified by (pkg, name): repeated runs of the same benchmark
// in the same package (-count N) are averaged, with the run count summed,
// so -count 5 yields one stable row per benchmark, while same-named
// benchmarks of two packages stay two rows.
//
// Regression guard mode:
//
//	go test ./internal/routing/ -run '^$' -bench BenchmarkSimStep -benchmem |
//	    benchjson -check BENCH_routing.json -threshold 0.25 -o fresh.json
//
// -check compares the fresh ns/op of every benchmark whose name starts
// with -prefix (default BenchmarkSimStep; a comma-separated list covers
// several families at once, e.g.
// -prefix BenchmarkSimStep,BenchmarkExecuteColdVsWarm) against the
// committed row with the same (pkg, name) and exits 1 when any regresses
// by more than -threshold (fractional; 0.25 = 25%). The comparison table
// goes to stderr; -o writes the fresh JSON to a file (so CI can upload
// both sides as artifacts) instead of stdout. Benchmarks present on only
// one side are reported but never fail the check — renames should not
// break CI runs of unrelated changes.
//
// Service-latency guard mode (no stdin):
//
//	benchjson -netemud-check BENCH_netemud.json -netemud-fresh fresh.json
//
// compares the p99 request latency of two netemuload reports (the
// BENCH_netemud.json schema) and exits 1 when the fresh p99 exceeds the
// committed one by more than -netemud-threshold (fractional; the default
// 1.0 tolerates a 2x swing — shared CI runners are noisy, this guards
// against order-of-magnitude serving-path regressions, not percent-level
// drift).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
)

type benchResult struct {
	Pkg         string  `json:"pkg,omitempty"`
	Name        string  `json:"name"`
	Runs        int64   `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`

	samples int64
}

// key identifies a row: the same benchmark name in two packages is two
// rows.
func (r *benchResult) key() string { return r.Pkg + " " + r.Name }

type benchFile struct {
	Goos       string         `json:"goos,omitempty"`
	Goarch     string         `json:"goarch,omitempty"`
	CPU        string         `json:"cpu,omitempty"`
	Benchmarks []*benchResult `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	check := flag.String("check", "", "committed benchmark JSON to compare against; exit 1 on regression")
	threshold := flag.Float64("threshold", 0.25, "fractional ns/op regression tolerance for -check (0.25 = 25%)")
	prefix := flag.String("prefix", "BenchmarkSimStep", "benchmark name prefix(es) the -check comparison covers (comma-separated)")
	outPath := flag.String("o", "", "write the fresh JSON to this file instead of stdout")
	netemudCheck := flag.String("netemud-check", "", "committed BENCH_netemud.json whose p99 latency to guard (skips stdin; needs -netemud-fresh)")
	netemudFresh := flag.String("netemud-fresh", "", "fresh netemuload report to compare against -netemud-check")
	netemudThreshold := flag.Float64("netemud-threshold", 1.0, "fractional p99 latency tolerance for -netemud-check (1.0 = 2x)")
	flag.Parse()
	if *netemudCheck != "" || *netemudFresh != "" {
		if *netemudCheck == "" || *netemudFresh == "" {
			log.Fatal("-netemud-check and -netemud-fresh must be given together")
		}
		if !checkNetemudLatency(*netemudCheck, *netemudFresh, *netemudThreshold) {
			os.Exit(1)
		}
		return
	}
	out, err := parseBench(os.Stdin)
	if err != nil {
		log.Fatal(err)
	}
	dst := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		dst = f
	}
	enc := json.NewEncoder(dst)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		log.Fatal(err)
	}
	if *check != "" {
		raw, err := os.ReadFile(*check)
		if err != nil {
			log.Fatal(err)
		}
		var committed benchFile
		if err := json.Unmarshal(raw, &committed); err != nil {
			log.Fatalf("%s: %v", *check, err)
		}
		if !checkRegressions(os.Stderr, out, committed, *check, *prefix, *threshold) {
			os.Exit(1)
		}
	}
}

// parseBench reads a `go test -bench` stream into one record, stamping
// every row with the package of the latest `pkg:` header and averaging
// repeated (pkg, name) rows.
func parseBench(r io.Reader) (benchFile, error) {
	var out benchFile
	index := map[string]*benchResult{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			out.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			out.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			out.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if r := parseBenchLine(line); r != nil {
				r.Pkg = pkg
				if prev, ok := index[r.key()]; ok {
					// Average repeated -count runs weighted equally per
					// line; sum the iteration counts.
					prev.NsPerOp += r.NsPerOp
					prev.BytesPerOp += r.BytesPerOp
					prev.AllocsPerOp += r.AllocsPerOp
					prev.Runs += r.Runs
					prev.samples++
				} else {
					r.samples = 1
					index[r.key()] = r
					out.Benchmarks = append(out.Benchmarks, r)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return benchFile{}, err
	}
	for _, r := range out.Benchmarks {
		r.NsPerOp /= float64(r.samples)
		r.BytesPerOp /= float64(r.samples)
		r.AllocsPerOp /= float64(r.samples)
	}
	return out, nil
}

// checkRegressions compares the fresh results against the committed
// record row by row on (pkg, name), reporting every prefixed benchmark to
// w and returning false when any regresses beyond the threshold.
func checkRegressions(w io.Writer, fresh, committed benchFile, committedPath, prefix string, threshold float64) bool {
	prefixes := strings.Split(prefix, ",")
	matches := func(name string) bool {
		for _, p := range prefixes {
			if p != "" && strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	base := map[string]*benchResult{}
	for _, r := range committed.Benchmarks {
		if matches(r.Name) {
			base[r.key()] = r
		}
	}
	ok := true
	compared := 0
	for _, r := range fresh.Benchmarks {
		if !matches(r.Name) {
			continue
		}
		b, found := base[r.key()]
		if !found {
			fmt.Fprintf(w, "  NEW      %-50s %14.0f ns/op (not in %s)\n", r.key(), r.NsPerOp, committedPath)
			continue
		}
		delete(base, r.key())
		compared++
		ratio := r.NsPerOp / b.NsPerOp
		verdict := "ok"
		if ratio > 1+threshold {
			verdict = "REGRESSED"
			ok = false
		}
		fmt.Fprintf(w, "  %-8s %-50s %14.0f -> %.0f ns/op (%+.1f%%)\n",
			verdict, r.key(), b.NsPerOp, r.NsPerOp, 100*(ratio-1))
	}
	for k := range base {
		fmt.Fprintf(w, "  MISSING  %-50s (committed but not in this run)\n", k)
	}
	if compared == 0 {
		// A prefix typo or an empty bench run must not masquerade as a pass.
		fmt.Fprintf(w, "benchjson: no benchmarks matching prefix %q on both sides\n", prefix)
		return false
	}
	return ok
}

// netemudReport is the slice of the BENCH_netemud.json schema
// (cmd/netemuload's benchReport) the latency guard reads.
type netemudReport struct {
	Requests  int     `json:"requests"`
	RPS       float64 `json:"throughput_rps"`
	LatencyUS struct {
		P50 int `json:"p50"`
		P99 int `json:"p99"`
	} `json:"latency_us"`
}

func loadNetemudReport(path string) netemudReport {
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	var rep netemudReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	if rep.LatencyUS.P99 <= 0 {
		log.Fatalf("%s: no p99 latency — not a netemuload report?", path)
	}
	return rep
}

// checkNetemudLatency guards the serving path's tail latency: the fresh
// replay's p99 may not exceed the committed record's by more than the
// threshold fraction.
func checkNetemudLatency(committedPath, freshPath string, threshold float64) bool {
	committed := loadNetemudReport(committedPath)
	fresh := loadNetemudReport(freshPath)
	ratio := float64(fresh.LatencyUS.P99) / float64(committed.LatencyUS.P99)
	verdict := "ok"
	ok := true
	if ratio > 1+threshold {
		verdict = "REGRESSED"
		ok = false
	}
	fmt.Fprintf(os.Stderr, "  %-9s netemud p99 %6dµs -> %6dµs (%+.1f%%, tolerance %+.0f%%); p50 %dµs -> %dµs, %.1f -> %.1f req/s\n",
		verdict, committed.LatencyUS.P99, fresh.LatencyUS.P99, 100*(ratio-1), 100*threshold,
		committed.LatencyUS.P50, fresh.LatencyUS.P50, committed.RPS, fresh.RPS)
	return ok
}

// parseBenchLine parses one "BenchmarkX-8  N  T ns/op [B B/op] [A allocs/op]"
// line, returning nil for lines that do not fit the shape (e.g. a test log
// line that happens to start with "Benchmark").
func parseBenchLine(line string) *benchResult {
	f := strings.Fields(line)
	if len(f) < 4 {
		return nil
	}
	name := f[0]
	// Strip the -GOMAXPROCS suffix so rows are comparable across machines.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	runs, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return nil
	}
	r := &benchResult{Name: name, Runs: runs}
	ok := false
	for i := 2; i+1 < len(f); i += 2 {
		val, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return nil
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp, ok = val, true
		case "B/op":
			r.BytesPerOp = val
		case "allocs/op":
			r.AllocsPerOp = val
		}
	}
	if !ok {
		return nil
	}
	return r
}
