package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/runspec"
	"repro/internal/server/cluster"
)

// The distributed-mode contract, end to end over real HTTP: a
// coordinator's responses are byte-identical to a single-node server's
// for the same specs — including with a worker killed mid-sweep, where
// requests must fail over to the ring successor — and with the whole
// pool dead the coordinator degrades to local execution. Run with
// -race: the sweep exercises the dispatcher, health feedback, and the
// coordinator's compute path concurrently with worker serving.

// fastClusterOpts keeps retries snappy and the probe loop quiet (tests
// drive liveness through transport feedback).
func fastClusterOpts() cluster.Options {
	return cluster.Options{
		ProbeInterval: time.Hour,
		BackoffBase:   time.Millisecond,
		BackoffMax:    4 * time.Millisecond,
		Validate:      ValidateWorkerBody,
	}
}

// sweepSpec returns the i-th spec of the test sweep: cheap distinct
// betas so the canonical keys spread across the ring.
func sweepSpec(i int) runspec.Spec {
	return runspec.Spec{
		Kind:        runspec.KindBeta,
		Machine:     &runspec.MachineSpec{Family: "Mesh", Dim: 2, Size: 16},
		LoadFactors: []int{2},
		Trials:      1,
		Seed:        int64(i),
	}
}

func postSpec(t *testing.T, url string, spec runspec.Spec) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return post(t, url+spec.Kind.Endpoint(), string(body), nil)
}

func TestClusterFailoverByteIdenticalMidSweep(t *testing.T) {
	const sweep = 10

	// Reference: a plain single-node server.
	_, ref := newTestServer(t, Config{})

	// Two workers, each a full single-node server.
	w1srv, w1 := newTestServer(t, Config{})
	_, w2 := newTestServer(t, Config{})
	addr1 := strings.TrimPrefix(w1.URL, "http://")
	addr2 := strings.TrimPrefix(w2.URL, "http://")

	d := cluster.NewDispatcher([]string{addr1, addr2}, fastClusterOpts())
	defer d.Close()
	coord, cts := newTestServer(t, Config{Dispatch: d})

	want := make([][]byte, sweep)
	for i := 0; i < sweep; i++ {
		code, body := postSpec(t, ref.URL, sweepSpec(i))
		if code != http.StatusOK {
			t.Fatalf("reference spec %d: status %d: %s", i, code, body)
		}
		want[i] = body
	}

	// First half against the healthy pool.
	half := sweep / 2
	for i := 0; i < half; i++ {
		code, body := postSpec(t, cts.URL, sweepSpec(i))
		if code != http.StatusOK {
			t.Fatalf("cluster spec %d: status %d: %s", i, code, body)
		}
		if !bytes.Equal(body, want[i]) {
			t.Fatalf("cluster spec %d diverged from single-node bytes", i)
		}
	}

	// Kill the worker that owns the next key, so the very next request
	// must fail over to the ring successor.
	nextKey := sweepSpec(half).Canonical()
	owner := d.Ring().Successors(nextKey)[0]
	if owner == addr1 {
		w1.Close()
		w1srv.BeginDrain()
	} else {
		w2.Close()
	}

	for i := half; i < sweep; i++ {
		code, body := postSpec(t, cts.URL, sweepSpec(i))
		if code != http.StatusOK {
			t.Fatalf("post-kill cluster spec %d: status %d: %s", i, code, body)
		}
		if !bytes.Equal(body, want[i]) {
			t.Fatalf("post-kill cluster spec %d diverged from single-node bytes", i)
		}
	}

	m := coord.Metrics()
	if m.Cluster == nil {
		t.Fatal("coordinator snapshot has no cluster section")
	}
	if m.Cluster.Workers != 2 {
		t.Fatalf("cluster workers = %d, want 2", m.Cluster.Workers)
	}
	if m.Cluster.Forwarded != sweep {
		t.Fatalf("forwarded = %d, want %d (every request should reach a worker)", m.Cluster.Forwarded, sweep)
	}
	if m.Cluster.Failovers < 1 {
		t.Fatalf("failovers = %d, want >= 1 (the killed owner's request must retry on the successor)", m.Cluster.Failovers)
	}
	if m.Cluster.WorkersAlive != 1 {
		t.Fatalf("workers_alive = %d, want 1 after the kill", m.Cluster.WorkersAlive)
	}
	if m.Cluster.LocalFallbacks != 0 || m.Executions != 0 {
		t.Fatalf("coordinator computed locally (fallbacks=%d, executions=%d) with a live worker in the pool",
			m.Cluster.LocalFallbacks, m.Executions)
	}

	// The /metrics endpoint itself must expose the same cluster section.
	resp, err := http.Get(cts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Cluster *struct {
			Forwarded int64 `json:"forwarded"`
			Failovers int64 `json:"failovers"`
		} `json:"cluster"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil || doc.Cluster == nil {
		t.Fatalf("/metrics cluster section missing or unreadable: %v", err)
	}
	if doc.Cluster.Failovers != m.Cluster.Failovers || doc.Cluster.Forwarded != m.Cluster.Forwarded {
		t.Fatalf("/metrics cluster counters %+v disagree with snapshot %+v", doc.Cluster, m.Cluster)
	}
}

func TestClusterLocalFallbackWhenPoolDead(t *testing.T) {
	// A pool of one worker that is already gone.
	_, dead := newTestServer(t, Config{})
	addr := strings.TrimPrefix(dead.URL, "http://")
	dead.Close()

	d := cluster.NewDispatcher([]string{addr}, fastClusterOpts())
	defer d.Close()
	coord, cts := newTestServer(t, Config{Dispatch: d})

	_, ref := newTestServer(t, Config{})
	spec := sweepSpec(99)
	wantCode, want := postSpec(t, ref.URL, spec)
	if wantCode != http.StatusOK {
		t.Fatalf("reference status %d", wantCode)
	}

	code, body := postSpec(t, cts.URL, spec)
	if code != http.StatusOK {
		t.Fatalf("fallback status %d: %s", code, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("local fallback diverged from single-node bytes")
	}
	m := coord.Metrics()
	if m.Cluster == nil || m.Cluster.LocalFallbacks != 1 || m.Executions != 1 {
		t.Fatalf("fallback accounting: %+v, executions=%d", m.Cluster, m.Executions)
	}
	if m.Cluster.Forwarded != 0 {
		t.Fatalf("forwarded = %d with a dead pool", m.Cluster.Forwarded)
	}
}

// TestClusterValidationErrorsPassThrough: a worker's deterministic 400
// must reach the coordinator's client with the single-node error body,
// not trigger a retry storm or a local recompute.
func TestClusterValidationErrorsPassThrough(t *testing.T) {
	_, w := newTestServer(t, Config{})
	d := cluster.NewDispatcher([]string{strings.TrimPrefix(w.URL, "http://")}, fastClusterOpts())
	defer d.Close()
	coord, cts := newTestServer(t, Config{Dispatch: d})
	_, ref := newTestServer(t, Config{})

	// Passes shallow Validate on the coordinator but fails in the
	// worker's Execute: locality traffic on a machine with switches
	// (GlobalBus) is only rejected once the machine is built.
	spec := `{"kind":"beta","machine":{"family":"GlobalBus","size":16},"traffic":"locality:0.5","load_factors":[2],"trials":1,"seed":1}`
	wantCode, wantBody := post(t, ref.URL+"/v1/measure", spec, nil)
	if wantCode != http.StatusBadRequest {
		t.Fatalf("single-node status %d, want 400 for the execution-time error", wantCode)
	}
	code, body := post(t, cts.URL+"/v1/measure", spec, nil)
	if code != wantCode {
		t.Fatalf("coordinator status %d, single-node status %d", code, wantCode)
	}
	if !bytes.Equal(body, wantBody) {
		t.Fatalf("error bodies diverged:\ncoordinator: %s\nsingle-node: %s", body, wantBody)
	}
	if m := coord.Metrics(); m.Executions != 0 {
		t.Fatalf("coordinator recomputed locally on a pass-through response (executions=%d)", m.Executions)
	}
}
