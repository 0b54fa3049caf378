package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/cluster"
	"repro/internal/store"
)

// memDeployment is a deployment of in-process httptest servers.
type memDeployment struct {
	front *httptest.Server
	nodes []*httptest.Server // workers
	addrs []string
	disp  *cluster.Dispatcher
	st    *store.Store
}

func (d *memDeployment) url() string       { return d.front.URL }
func (d *memDeployment) workers() []string { return d.addrs }

func (d *memDeployment) rssMB() (float64, error) {
	kb, err := vmHWM(os.Getpid())
	return float64(kb) / 1024, err
}

func (d *memDeployment) cpuS() (float64, error) { return cpuSeconds(), nil }

func (d *memDeployment) stop() error {
	d.front.Close()
	if d.disp != nil {
		d.disp.Close()
	}
	for _, w := range d.nodes {
		w.Close()
	}
	if d.st != nil {
		return d.st.Close()
	}
	return nil
}

// inProcessLauncher boots the same topologies as procLauncher, as
// httptest servers inside the test process.
func inProcessLauncher(sh shape) (deployment, error) {
	d := &memDeployment{}
	cfg := server.Config{MaxConcurrent: 2, QueueDepth: 16, Shards: 1}
	if sh.storeDir != "" {
		st, err := store.Open(sh.storeDir)
		if err != nil {
			return nil, err
		}
		d.st, cfg.Store = st, st
	}
	if sh.cluster {
		for k := 0; k < 2; k++ {
			w := httptest.NewServer(server.New(server.Config{MaxConcurrent: 2, Shards: 1}).Handler())
			d.nodes = append(d.nodes, w)
			d.addrs = append(d.addrs, w.Listener.Addr().String())
		}
		d.disp = cluster.NewDispatcher(d.addrs, cluster.Options{ProbeInterval: time.Hour, Validate: server.ValidateWorkerBody})
		d.disp.Start()
		cfg.Dispatch, cfg.Role = d.disp, "coordinator"
	}
	d.front = httptest.NewServer(server.New(cfg).Handler())
	return d, nil
}

// benchmarkNames reads the metric names BENCHMARK.json lists.
func benchmarkNames(t *testing.T) (e2e, layer []string) {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []struct{ Name string } `json:"end_to_end"`
		PerLayer   []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != windowSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, program window %d s", doc.RunSeconds, windowSeconds)
	}
	var ws []string
	for _, w := range doc.Workloads {
		ws = append(ws, w.Name)
	}
	if !equalSets(ws, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", ws, workloadNames)
	}
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range doc.PerLayer {
		layer = append(layer, m.Name)
	}
	return e2e, layer
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSmokeEveryWorkload runs every workload at 1/50 scale, untraced
// and traced, against in-process servers: every metric BENCHMARK.json
// names is emitted, and nothing fails.
func TestSmokeEveryWorkload(t *testing.T) {
	e2e, layer := benchmarkNames(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			r := &runner{
				seed:       7,
				segs:       2,
				seg:        200 * time.Millisecond,
				burst:      10 * time.Millisecond,
				setupBurst: 5 * time.Millisecond,
				sc:         scale{div: 50},
				launch:     inProcessLauncher,
				work:       t.TempDir(),
				outDir:     t.TempDir(),
				setupReps:  2,
			}
			rep, err := r.run(name, traced)
			if r.cal != nil {
				r.cal.close()
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", name, traced, rep.failed, rep.attempted, rep.failures)
			}
			var got []string
			for _, m := range rep.metrics {
				got = append(got, m.name)
			}
			want := e2e
			if traced {
				want = layer
			}
			if !equalSets(got, want) {
				t.Errorf("%s traced=%v: emitted %v, BENCHMARK.json lists %v", name, traced, got, want)
			}
			for _, m := range rep.extra {
				if m.name == "error_ratio" && m.value != 0 {
					t.Errorf("%s: error_ratio %v", name, m.value)
				}
			}
		}
	}
}
