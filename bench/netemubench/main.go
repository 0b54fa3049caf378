// Command netemubench is the netemu serving stack's benchmark. It
// builds cmd/netemud, boots real netemud processes on loopback for each
// workload, warms them, drives generated load from this one process
// over at most two connections, checks every answer it can, and prints
// the end-to-end metrics, their times scaled to a reference machine
// speed that short calibration bursts between the window's load
// segments measure (calibrate.go). With -trace 1 it drives the live
// load for half the window, then replays the same generated inputs
// through an in-process server, one request at a time, with spans
// around each layer's public functions, and prints the per-layer
// metrics.
// bench/README.md describes the workloads and every metric.
//
// Usage, from anywhere in the repository:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-trace 0|1] [-seconds 20]
//
// Without -workload it runs all four workloads in turn. The last line
// of standard output is one JSON object: correct, attempted, failed,
// and the metrics. Each run also writes bench/out/NAME-seedN-traceT.json
// (and, traced, bench/out/trace-NAME.json with every span).
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/bench/stats"
	"repro/internal/runspec"
	"repro/internal/store"
)

func main() {
	workloadFlag := flag.String("workload", "", "workload to run (measure-cold, sweep, hot-read, cluster-mix); empty runs all")
	seed := flag.Int64("seed", 1, "input seed in [0, 2^31); every generated input is a pure function of (workload, seed)")
	seconds := flag.Float64("seconds", windowSeconds, fmt.Sprintf("measured window per workload, in seconds; only %d is accepted", windowSeconds))
	trace := flag.Int("trace", 0, "1 replays the inputs in process with spans and reports per-layer metrics")
	flag.Parse()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "netemubench: %v: stopping every netemud it started\n", s)
		killAll()
		os.Exit(130)
	}()

	code := run(*workloadFlag, *seed, *seconds, *trace == 1)
	killAll()
	os.Exit(code)
}

func run(only string, seed int64, seconds float64, traced bool) int {
	names := workloadNames
	if only != "" {
		names = []string{only}
	}
	if seconds != windowSeconds {
		fmt.Fprintf(os.Stderr, "netemubench: -seconds is %v; the window is fixed at %d s (run_seconds in BENCHMARK.json)\n", seconds, windowSeconds)
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "netemubench:", err)
		return 2
	}
	work := filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	bin := filepath.Join(root, ".bench_build", "netemud")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "netemubench:", err)
		return 2
	}
	if err := buildNetemud(root, bin); err != nil {
		fmt.Fprintln(os.Stderr, "netemubench: building netemud:", err)
		return 2
	}
	r := &runner{
		seed:       seed,
		segs:       windowSegments,
		seg:        segmentLoad,
		burst:      windowBurst,
		setupBurst: setupBurst,
		sc:         scale{div: 1},
		launch:     procLauncher(bin, work),
		work:       work,
		outDir:     filepath.Join(root, "bench", "out"),
		setupReps:  9,
	}
	defer func() {
		if r.cal != nil {
			r.cal.close()
		}
	}()
	var reps []*report
	for _, name := range names {
		rep, err := r.run(name, traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netemubench: %s: %v (logs kept in %s)\n", name, err, work)
			return 1
		}
		rep.print(os.Stdout)
		if err := rep.save(r.outDir); err != nil {
			fmt.Fprintln(os.Stderr, "netemubench:", err)
			return 1
		}
		reps = append(reps, rep)
	}
	line := contractLine(reps, len(names) > 1)
	fmt.Println(line)
	if !line.Correct {
		fmt.Fprintf(os.Stderr, "netemubench: checks failed (logs kept in %s)\n", work)
		return 1
	}
	os.RemoveAll(work)
	return 0
}

// findRoot walks up from the working directory to the repository root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "netemud", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/netemud/main.go in or above the working directory: run inside the netemu repository")
		}
		dir = parent
	}
}

func buildNetemud(root, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/netemud")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	return cmd.Run()
}

// windowSeconds is the measured window of every workload run, equal to
// run_seconds in BENCHMARK.json. It is fixed, not a knob: the generated
// inputs are sized for it, and runs are only comparable at one length.
// The -seconds flag exists because callers pass run_seconds; any other
// value is refused.
//
// The window is windowSegments load segments of segmentLoad, with a
// calibration burst of windowBurst before the first and after each one:
// 8 × 2 s + 9 × 0.45 s ≈ 20 s. Set-up runs before it, each boot between
// two bursts of setupBurst.
const (
	windowSeconds  = 20
	windowSegments = 8
	segmentLoad    = 2 * time.Second
	windowBurst    = 450 * time.Millisecond
	setupBurst     = 250 * time.Millisecond
)

// loadSeconds is the window's load time, which the generated inputs are
// sized for.
const loadSeconds = int(windowSegments * segmentLoad / time.Second)

// runner holds what every workload run shares.
type runner struct {
	seed       int64
	segs       int           // load segments per window
	seg        time.Duration // load time per segment
	burst      time.Duration // calibration burst around each segment
	setupBurst time.Duration // calibration burst around each set-up boot
	sc         scale
	launch     launcher
	work       string      // stores and logs; removed after a clean run
	outDir     string      // result and trace files
	setupReps  int         // setup_s is the median over this many boots
	cal        *calibrator // made on the first untraced run
}

// load is a window's load time.
func (r *runner) load() time.Duration { return time.Duration(r.segs) * r.seg }

func (r *runner) pacing(cal *calibrator) pacing {
	return pacing{segs: r.segs, seg: r.seg, burst: r.burst, cal: cal}
}

type metric struct {
	name  string
	value float64
	unit  string
}

// report is one workload run's outcome.
type report struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	attempted int
	failed    int
	failures  []string
	invalid   string // why the run's figures cannot be trusted, if they cannot
	// metrics are the ones BENCHMARK.json lists for this mode; extra
	// are printed and saved beside them but are not gated.
	metrics []metric
	extra   []metric
	// segments are the window's load segments, for diagnosis: a stall
	// shows as a slow segment, a machine slowdown as a low speed.
	segments []segment
}

func (r *runner) run(name string, traced bool) (*report, error) {
	w, err := newWorkload(name, r.seed, r.sc)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(r.work, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	chk := newChecker()
	history := ""
	if w.prefill != nil {
		history = filepath.Join(dir, "history")
		if err := r.prefill(w, history, chk); err != nil {
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}
	rep := &report{workload: name, seed: r.seed, seconds: r.load().Seconds(), traced: traced}
	if traced {
		err = r.traced(w, dir, history, chk, rep)
	} else {
		err = r.untraced(w, dir, history, chk, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.failed += chk.verify()
	rep.failures = chk.failures
	return rep, nil
}

// prefill lands the hot-read history in a store through one netemud,
// untimed, and remembers each history body for the read checks.
func (r *runner) prefill(w *workload, dir string, chk *checker) error {
	d, err := r.launch(shape{storeDir: dir})
	if err != nil {
		return err
	}
	c := newLoadClient()
	err = sendAll(c, d.url(), w.prefill, func(k int, body []byte) error {
		points, err := splitStream(body)
		if err != nil {
			return err
		}
		if len(points) != w.prefill[k].points {
			return fmt.Errorf("prefill sweep %d: %d of %d points", k, len(points), w.prefill[k].points)
		}
		for j, p := range points {
			chk.recordPost(w.prefill[k].spec+j, sha256.Sum256(p))
		}
		return nil
	})
	c.CloseIdleConnections()
	return errors.Join(err, d.stop())
}

// boot starts one deployment over a fresh store (a copy of the history
// for hot-read) and warms it. The returned duration is set-up time:
// from spawning the processes until every node is healthy and the
// warm-up has been answered.
func (r *runner) boot(w *workload, storeDir, history string, chk *checker) (deployment, time.Duration, error) {
	if err := os.RemoveAll(storeDir); err != nil {
		return nil, 0, err
	}
	if history != "" {
		if err := copyDir(history, storeDir); err != nil {
			return nil, 0, err
		}
	}
	t0 := time.Now()
	d, err := r.launch(shape{cluster: w.cluster, storeDir: storeDir})
	if err != nil {
		return nil, 0, err
	}
	c := newLoadClient()
	err = sendAll(c, d.url(), w.warm, func(k int, body []byte) error {
		if s := w.warm[k].spec; s >= 0 && !chk.recordPost(s, sha256.Sum256(body)) {
			return fmt.Errorf("warm-up spec %d answered with different bytes than on an earlier boot", s)
		}
		return nil
	})
	elapsed := time.Since(t0)
	c.CloseIdleConnections()
	if err != nil {
		return nil, 0, errors.Join(fmt.Errorf("warm-up: %w", err), d.stop())
	}
	return d, elapsed, nil
}

func (r *runner) untraced(w *workload, dir, history string, chk *checker, rep *report) error {
	if r.cal == nil {
		cal, err := newCalibrator()
		if err != nil {
			return err
		}
		r.cal = cal
	}
	// Set-up: every boot between two calibration bursts, each boot's time
	// scaled by the speed over its pair.
	var setups, rawSetups []float64
	var d deployment
	for k := 0; k < r.setupReps; k++ {
		b, err := r.cal.burst(r.setupBurst)
		if err != nil {
			return err
		}
		storeDir := filepath.Join(dir, fmt.Sprintf("store%d", k))
		dd, took, err := r.boot(w, storeDir, history, chk)
		if err != nil {
			return err
		}
		if k < r.setupReps-1 {
			if err := dd.stop(); err != nil {
				return err
			}
			os.RemoveAll(storeDir)
		} else {
			d = dd
		}
		after, err := r.cal.burst(r.setupBurst)
		if err != nil {
			if d != nil {
				err = errors.Join(err, d.stop())
			}
			return err
		}
		setups = append(setups, took.Seconds()*r.cal.speed(b, after))
		rawSetups = append(rawSetups, took.Seconds())
	}
	win, err := drive(w, d, r.pacing(r.cal), chk)
	if err = errors.Join(err, d.stop()); err != nil {
		return err
	}
	if win.exhausted {
		return fmt.Errorf("the generated requests ran out before the window ended")
	}
	lat := stats.Sorted(win.latencies(true))
	raw := stats.Sorted(win.latencies(false))
	// A closed loop's rate is the work done over the load time at the
	// reference speed; an open loop's is the achieved rate, which its
	// schedule sets, so it is not scaled.
	rate, rawRate := float64(win.results())/win.refSeconds(), float64(win.results())/win.wall().Seconds()
	if w.rate > 0 {
		rate = rawRate
	}
	rep.segments = win.segs
	rep.attempted, rep.failed = win.attempted, win.failed
	rep.metrics = []metric{
		{"setup_s", stats.Median(setups), "s"},
		{"results_per_s", rate, "1/s"},
		{"latency_p50_ms", stats.NearestRank(lat, 0.5), "ms"},
		{"latency_p90_ms", stats.NearestRank(lat, 0.9), "ms"},
		{"server_rss_mb", win.rssMB, "MB"},
	}
	speeds := make([]float64, len(win.segs))
	for i, s := range win.segs {
		speeds[i] = s.speed
	}
	rep.extra = []metric{
		{"error_ratio", share(float64(win.failed), float64(win.attempted)), "ratio"},
		{"latency_samples", float64(len(lat)), "count"},
		{"rss_read_after", float64(win.rssAt), "requests"},
		{"speed", stats.Median(speeds), "ratio"},
		{"raw.setup_s", stats.Median(rawSetups), "s"},
		{"raw.results_per_s", rawRate, "1/s"},
		{"raw.latency_p50_ms", stats.NearestRank(raw, 0.5), "ms"},
		{"raw.latency_p90_ms", stats.NearestRank(raw, 0.9), "ms"},
		{"server_cpu_s", win.serverCPU, "s"},
		{"loadgen_cpu_s", win.cpuS, "s"},
	}
	// p99 over the whole window, when enough samples lie beyond it.
	if stats.Supported(len(lat), 0.99) {
		rep.extra = append(rep.extra, metric{"latency_p99_ms", stats.NearestRank(lat, 0.99), "ms"})
	}
	if w.rate > 0 {
		lag := stats.NearestRank(stats.Sorted(win.lagMS), 0.99)
		rep.extra = append(rep.extra, metric{"loadgen.lag_ms_p99", lag, "ms"})
		if lag > maxLagMS {
			rep.invalid = fmt.Sprintf("generator lag p99 %.3f ms exceeds %v ms, so latencies include the generator's own delay", lag, maxLagMS)
		}
	}
	return nil
}

// maxLagMS is the open-loop generator lateness (p99) past which a run
// measures the generator, or the machine stalling it, rather than the
// server. Such a run is marked invalid, not failed: nothing it checked
// went wrong.
const maxLagMS = 5

// share is n over base, or 0 when base is 0.
func share(n, base float64) float64 {
	if base == 0 {
		return 0
	}
	return n / base
}

// memoProbe is how many memo-answered POSTs time the HTTP layer's
// overhead, live and in process.
const memoProbe = 200

func (r *runner) traced(w *workload, dir, history string, chk *checker, rep *report) (err error) {
	d, _, err := r.boot(w, filepath.Join(dir, "store0"), history, chk)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, d.stop()) }()

	// Live half: the workload's own load for half the window, for the
	// serving counters and the generator's figures.
	before, err := fetchCounters(d.url())
	if err != nil {
		return err
	}
	win, err := drive(w, d, pacing{segs: 1, seg: r.load() / 2}, chk)
	if err != nil {
		return err
	}
	after, err := fetchCounters(d.url())
	if err != nil {
		return err
	}
	liveMemo, err := liveMemoProbe(d.url(), w.warm)
	if err != nil {
		return err
	}

	// In-process half: the same inputs, one at a time, traced.
	inDir := filepath.Join(dir, "inproc-store")
	if history != "" {
		if err := copyDir(history, inDir); err != nil {
			return err
		}
	}
	st, err := store.Open(inDir)
	if err != nil {
		return err
	}
	scratch, err := store.Open(filepath.Join(dir, "scratch-store"))
	if err != nil {
		st.Close()
		return err
	}
	tr := newTracer()
	srv, stopDispatch := newInProcessNode(tr, st, d.workers())
	x := &replayer{tr: tr, srv: srv, st: st, scratch: scratch, shadow: runspec.NewArtifactCache(0, 0), exec: map[runspec.Kind][]float64{}}
	inMemo, err := x.prepare(w.warm)
	replays, replayFailed := 0, 0
	if err == nil {
		mb, eb := x.shadow.MachineBuilds(), x.shadow.EngineBuilds()
		deadline := time.Now().Add(r.load() / 2)
		for i := 0; time.Now().Before(deadline); i++ {
			req, ok := w.next(i)
			if !ok {
				break
			}
			status, body := x.replay(i, req)
			replays++
			if status != http.StatusOK {
				replayFailed++
				chk.fail("in-process %s %s: status %d: %.200s", req.method, req.path, status, body)
			}
		}
		x.machineBuilds = x.shadow.MachineBuilds() - mb
		x.engineBuilds = x.shadow.EngineBuilds() - eb
	}
	stopDispatch()
	srv.Close()
	err = errors.Join(err, st.Close(), scratch.Close())
	if err != nil {
		return err
	}
	spans := tr.spans
	if err := checkSpans(spans); err != nil {
		return fmt.Errorf("trace: %w", err)
	}

	machineMS, engineMS := buildTimes(w.warm)
	steps, err := stepTimes()
	if err != nil {
		return err
	}
	openS, perRecord, err := storeFootprint(inDir)
	if err != nil {
		return err
	}
	httpUS := p50(liveMemo) - p50(inMemo)
	shares := layerShares(spans, x.done, httpUS)
	if err := writeTrace(filepath.Join(r.outDir, "trace-"+w.name+".json"), w.name, r.seed, spans, shares); err != nil {
		return err
	}

	lag := 0.0
	if w.rate > 0 {
		lag = stats.NearestRank(stats.Sorted(win.lagMS), 0.99)
	}
	rep.attempted = win.attempted + replays
	rep.failed = win.failed + replayFailed
	rep.metrics = []metric{
		{"loadgen.lag_ms_p99", lag, "ms"},
		{"loadgen.cpu_s", win.cpuS, "s"},
		{"http.overhead_us_p50", httpUS, "us"},
	}
	rep.metrics = append(rep.metrics, x.layerMetrics(spans)...)
	rep.metrics = append(rep.metrics, counterRatios(before, after)...)
	rep.metrics = append(rep.metrics,
		metric{"runspec.machine_hit_ratio", hitRatio(x.machineBuilds, x.lookups.machine), "ratio"},
		metric{"runspec.engine_hit_ratio", hitRatio(x.engineBuilds, x.lookups.engine), "ratio"},
		metric{"topology.build_ms_p50", machineMS, "ms"},
		metric{"routing.engine_build_ms_p50", engineMS, "ms"},
		metric{"store.open_s", openS, "s"},
		metric{"store.bytes_per_record", perRecord, "bytes"},
	)
	rep.metrics = append(rep.metrics, steps...)
	for _, s := range shares {
		rep.extra = append(rep.extra, metric{"share." + s.name, s.value, s.unit})
	}
	rep.extra = append(rep.extra, metric{"replayed_requests", float64(replays), "count"})
	return nil
}

// hitRatio is the share of lookups that built nothing; 0 with no
// lookups.
func hitRatio(builds int64, lookups int) float64 {
	if lookups == 0 {
		return 0
	}
	return 1 - share(float64(builds), float64(lookups))
}

func (rep *report) print(w io.Writer) {
	for _, m := range rep.metrics {
		fmt.Fprintf(w, "%s %s %s %s\n", rep.workload, m.name, strconv.FormatFloat(m.value, 'g', 6, 64), m.unit)
	}
	for _, m := range rep.extra {
		fmt.Fprintf(w, "%s %s %s %s\n", rep.workload, m.name, strconv.FormatFloat(m.value, 'g', 6, 64), m.unit)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(w, "%s FAILED %s\n", rep.workload, f)
	}
	if rep.invalid != "" {
		fmt.Fprintf(w, "%s INVALID %s\n", rep.workload, rep.invalid)
	}
}

type segmentDoc struct {
	WallS   float64 `json:"wall_s"`
	Results int     `json:"results"`
	Speed   float64 `json:"speed"`
	StealS  float64 `json:"steal_s"`
	LagP99  float64 `json:"lag_ms_p99,omitempty"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func asMap(ms []metric, prefix string, into map[string]valueUnit) map[string]valueUnit {
	if into == nil {
		into = make(map[string]valueUnit)
	}
	for _, m := range ms {
		into[prefix+m.name] = valueUnit{m.value, m.unit}
	}
	return into
}

// save writes the run's full result, the input bench/compare reads.
func (rep *report) save(dir string) error {
	doc := struct {
		Workload  string               `json:"workload"`
		Seed      int64                `json:"seed"`
		Seconds   float64              `json:"seconds"`
		Trace     bool                 `json:"trace"`
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Failures  []string             `json:"failures,omitempty"`
		Invalid   string               `json:"invalid,omitempty"`
		Metrics   map[string]valueUnit `json:"metrics"`
		Extra     map[string]valueUnit `json:"extra"`
		Segments  []segmentDoc         `json:"segments,omitempty"`
	}{rep.workload, rep.seed, rep.seconds, rep.traced, rep.failed == 0, rep.attempted, rep.failed, rep.failures,
		rep.invalid, asMap(rep.metrics, "", nil), asMap(rep.extra, "", nil), nil}
	for _, s := range rep.segments {
		doc.Segments = append(doc.Segments, segmentDoc{s.wall.Seconds(), s.results, s.speed, s.stealS, s.lagP99})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if rep.traced {
		trace = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", rep.workload, rep.seed, trace)), append(b, '\n'), 0o644)
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

func (l resultLine) String() string {
	b, _ := json.Marshal(l)
	return string(b)
}

// contractLine folds the reports into the final line; with several
// workloads the metric names carry a "workload/" prefix.
func contractLine(reps []*report, prefixed bool) resultLine {
	l := resultLine{Correct: true, Metrics: map[string]valueUnit{}}
	for _, rep := range reps {
		l.Attempted += rep.attempted
		l.Failed += rep.failed
		prefix := ""
		if prefixed {
			prefix = rep.workload + "/"
		}
		asMap(rep.metrics, prefix, l.Metrics)
	}
	l.Correct = l.Failed == 0 && l.Attempted > 0
	return l
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
