// Command compare judges a change against its parent from paired
// netemubench runs, benchstat-style.
//
// Run netemubench at least ten times on each commit, alternating which
// commit goes first and giving each pair its own -seed, and collect the
// result files (bench/out/NAME-seedN-traceT.json) of each commit in its
// own directory. Then:
//
//	go -C bench run ./compare -bench ../BENCHMARK.json -parent DIR -change DIR
//
// For every (workload, metric) it prints each side's median and
// quartiles, their spread, how many pairs the change won, and a
// verdict: win (the change wins ≥ 9/10 of the pairs and the medians
// differ by more than the parent's interquartile distance), regressed
// (the change's median is worse than the parent's by more than the
// BENCHMARK.json bound), unresolved (the spread is wider than the
// bound), or within. Untraced runs also get their printed-only p99
// latency and unscaled (raw.*) figures judged, without a bound, like
// per-layer metrics.
// Runs pair up by workload, trace mode and seed; a pair with a run
// marked invalid is skipped. It exits 1 if anything regressed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type benchmark struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// run is one netemubench result file.
type run struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Trace    bool                 `json:"trace"`
	Failed   int                  `json:"failed"`
	Invalid  string               `json:"invalid"`
	Metrics  map[string]valueOnly `json:"metrics"`
	Extra    map[string]valueOnly `json:"extra"`
}

type valueOnly struct {
	Value float64 `json:"value"`
}

// tails are printed-only figures of untraced runs, judged like
// per-layer metrics: without a bound. The raw.* figures are the gated
// ones before scaling to the reference speed.
var tails = []metricDef{
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "raw.results_per_s", Unit: "1/s", Better: "higher"},
	{Name: "raw.latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "raw.latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "raw.setup_s", Unit: "s", Better: "lower"},
}

type pairKey struct {
	workload string
	trace    bool
	seed     int64
}

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "the benchmark definition (metric directions and bounds)")
	parentDir := flag.String("parent", "", "directory of the parent commit's result files")
	changeDir := flag.String("change", "", "directory of the change's result files")
	flag.Parse()
	if *parentDir == "" || *changeDir == "" {
		fmt.Fprintln(os.Stderr, "compare: -parent and -change are required")
		os.Exit(2)
	}
	regressed, err := compare(os.Stdout, *benchPath, *parentDir, *changeDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	if regressed {
		os.Exit(1)
	}
}

func compare(out io.Writer, benchPath, parentDir, changeDir string) (regressed bool, err error) {
	b, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var bench benchmark
	if err := json.Unmarshal(b, &bench); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	parent, err := loadRuns(parentDir)
	if err != nil {
		return false, err
	}
	change, err := loadRuns(changeDir)
	if err != nil {
		return false, err
	}

	// Group the pairs by workload and mode.
	type group struct {
		workload string
		trace    bool
	}
	pairs := map[group][][2]run{}
	for k, p := range parent {
		c, ok := change[k]
		if !ok {
			continue
		}
		if p.Invalid != "" || c.Invalid != "" {
			fmt.Fprintf(out, "skipping %s seed %d: a run is invalid\n", k.workload, k.seed)
			continue
		}
		g := group{k.workload, k.trace}
		pairs[g] = append(pairs[g], [2]run{p, c})
	}
	if len(pairs) == 0 {
		return false, fmt.Errorf("no runs pair up between %s and %s (pairs match on workload, trace and seed)", parentDir, changeDir)
	}
	groups := make([]group, 0, len(pairs))
	for g := range pairs {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].trace != groups[j].trace {
			return !groups[i].trace
		}
		return groups[i].workload < groups[j].workload
	})

	fmt.Fprintf(out, "%-12s %-38s %28s %28s %7s %7s %11s  %s\n", "workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "worse", "wins", "spread p/c", "verdict")
	for _, g := range groups {
		ps := pairs[g]
		sort.Slice(ps, func(i, j int) bool { return ps[i][0].Seed < ps[j][0].Seed })
		defs := append(append([]metricDef(nil), bench.EndToEnd...), tails...)
		if g.trace {
			defs = bench.PerLayer
		}
		failedP, failedC := 0, 0
		for _, pr := range ps {
			failedP += pr[0].Failed
			failedC += pr[1].Failed
		}
		for _, d := range defs {
			var pv, cv []float64
			for _, pr := range ps {
				pv = append(pv, pr[0].value(d.Name))
				cv = append(cv, pr[1].value(d.Name))
			}
			bound := -1.0
			if d.Bound != nil {
				bound = *d.Bound
			}
			j := judge(pv, cv, d.Better == "lower", bound)
			if j.verdict == Win && failedC > failedP {
				// A gain does not count when more operations fail.
				j.verdict = Unresolved
			}
			regressed = regressed || j.verdict == Regressed
			fmt.Fprintf(out, "%-12s %-38s %28s %28s %6.1f%% %3d/%-3d %5.1f/%-5.1f  %s\n",
				g.workload, d.Name+" ("+d.Unit+")", fmtSide(j.parent), fmtSide(j.change),
				100*j.worse, j.wins, j.pairs, 100*j.parent.spread(), 100*j.change.spread(), j.verdict)
		}
		if failedP+failedC > 0 {
			fmt.Fprintf(out, "%-12s failed operations: parent %d, change %d\n", g.workload, failedP, failedC)
		}
	}
	return regressed, nil
}

// value reads a metric, falling back to the printed-only figures.
func (r run) value(name string) float64 {
	if v, ok := r.Metrics[name]; ok {
		return v.Value
	}
	return r.Extra[name].Value
}

func fmtSide(s side) string {
	return fmt.Sprintf("%.4g [%.4g %.4g]", s.med, s.q1, s.q3)
}

// loadRuns reads every result file in dir, keyed for pairing.
func loadRuns(dir string) (map[pairKey]run, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[pairKey]run{}
	for _, name := range names {
		if strings.HasPrefix(filepath.Base(name), "trace-") {
			continue // span files, not results
		}
		b, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var r run
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if r.Workload == "" || r.Metrics == nil {
			return nil, fmt.Errorf("%s is not a netemubench result file", name)
		}
		k := pairKey{r.Workload, r.Trace, r.Seed}
		if _, dup := out[k]; dup {
			return nil, fmt.Errorf("%s: a second run of %s seed %d in one directory", name, r.Workload, r.Seed)
		}
		out[k] = r
	}
	return out, nil
}
