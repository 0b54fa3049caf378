package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server/cluster"
)

// The failure-hardening contracts, end to end: a coordinator propagates
// its client's remaining budget to workers, refuses to cache worker
// bodies that are not results, drains gracefully over HTTP, and keeps
// its counters conserved under concurrent mixed traffic with failovers.

// TestClusterForwardPropagatesClientDeadline is the X-Timeout-Ms
// regression test: a 50ms client budget must reach the worker as a
// <=50ms X-Timeout-Ms (not the flat 90s forward timeout), and the
// client must see its 504 promptly instead of waiting out the worker's
// own 60s default deadline. The worker holds each forwarded POST until
// the forward gives up, so it outlasts the budget however fast the
// simulator runs the spec.
func TestClusterForwardPropagatesClientDeadline(t *testing.T) {
	var gotMs atomic.Int64
	gotMs.Store(-2) // sentinel: no POST seen

	wsrv := newDrainedServer(t, Config{})
	record := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			ms, err := strconv.ParseInt(r.Header.Get("X-Timeout-Ms"), 10, 64)
			if err != nil {
				ms = -1 // POST arrived without a budget
			}
			gotMs.Store(ms)
			// The server notices the forward hanging up only once the
			// body is read. The bound keeps a forward that never gives
			// up far below the 10 s promptness check, which reports it.
			body, _ := io.ReadAll(r.Body)
			select {
			case <-r.Context().Done():
				return
			case <-time.After(2 * time.Second):
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		wsrv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(record.Close)

	d := cluster.NewDispatcher([]string{strings.TrimPrefix(record.URL, "http://")}, fastClusterOpts())
	defer d.Close()
	_, cts := newTestServer(t, Config{Dispatch: d})

	start := time.Now()
	code, body := post(t, cts.URL+"/v1/measure", slowSpec(41), map[string]string{"X-Timeout-Ms": "50"})
	elapsed := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", code, body)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("504 took %v; the deadline did not reach the forward path", elapsed)
	}
	switch ms := gotMs.Load(); {
	case ms == -2:
		t.Fatal("forward never reached the worker")
	case ms == -1:
		t.Fatal("forward arrived without an X-Timeout-Ms budget")
	case ms < 1 || ms > 50:
		t.Fatalf("worker saw an X-Timeout-Ms budget of %dms, want in (0, 50]", ms)
	}
}

// newDrainedServer builds a bare Server (no listener) whose cleanup
// waits out its in-flight computations.
func newDrainedServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		s.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Wait(ctx); err != nil {
			t.Errorf("draining server: %v", err)
		}
	})
	return s
}

// TestInvalidWorkerBodyDoesNotPoisonCaches: a worker 200 that parses as
// JSON but is not a runspec.Result (what a truncation with fixed-up
// headers can look like) must never enter the flight table or the
// result store. The
// dispatcher here is configured with the lenient JSON-only validator so
// the bad body gets past it — the server's own ValidateWorkerBody
// re-check in forward() is the layer under test.
func TestInvalidWorkerBodyDoesNotPoisonCaches(t *testing.T) {
	var hits atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte("ok\n"))
			return
		}
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("{}\n")) // well-formed JSON, not a result
	}))
	t.Cleanup(fake.Close)
	addr := strings.TrimPrefix(fake.URL, "http://")

	dir := t.TempDir()
	opts := fastClusterOpts()
	opts.Validate = cluster.ValidJSONBody
	d := cluster.NewDispatcher([]string{addr}, opts)
	defer d.Close()
	coord, _, coordURL := newStoreServer(t, dir, Config{Dispatch: d})

	_, ref := newTestServer(t, Config{})
	spec := sweepSpec(7)
	wantCode, want := postSpec(t, ref.URL, spec)
	if wantCode != http.StatusOK {
		t.Fatalf("reference status %d", wantCode)
	}

	code, body := postSpec(t, coordURL, spec)
	if code != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("coordinator did not recover from the invalid body: status %d\n%s", code, body)
	}
	if hits.Load() == 0 {
		t.Fatal("the fake worker was never consulted; the test exercised nothing")
	}
	m := coord.Metrics()
	if m.Cluster.Forwarded != 0 {
		t.Fatalf("forwarded = %d; an invalid body counted as an answered forward", m.Cluster.Forwarded)
	}
	if m.Cluster.LocalFallbacks != 1 || m.Executions != 1 {
		t.Fatalf("fallbacks=%d executions=%d, want 1/1", m.Cluster.LocalFallbacks, m.Executions)
	}
	if d.Health().Allow(addr) {
		t.Fatal("worker serving invalid bodies was left in rotation")
	}

	// The memo must hold the locally computed bytes, not the junk.
	code, body = postSpec(t, coordURL, spec)
	if code != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("memo replay diverged: status %d", code)
	}
	if m := coord.Metrics(); m.MemoHits != 1 {
		t.Fatalf("memo hits = %d, want 1", m.MemoHits)
	}

	// And the store: a fresh single-node server over the same directory
	// must serve the good bytes without recomputing — the
	// zero-poisoning acceptance check.
	s2, _, url2 := newStoreServer(t, dir, Config{})
	code, body = postSpec(t, url2, spec)
	if code != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("store replay diverged: status %d\n%s", code, body)
	}
	if m := s2.Metrics(); m.StoreHits != 1 || m.Executions != 0 {
		t.Fatalf("store replay: store_hits=%d executions=%d, want 1/0", m.StoreHits, m.Executions)
	}
}

// TestDrainzEndpoint: POST /drainz flips the server into draining mode
// — healthz answers 503 (routing coordinators around it), new spec work
// sheds 503, and a second drainz is an idempotent no-op.
func TestDrainzEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain healthz status %d", resp.StatusCode)
	}

	code, body := post(t, ts.URL+"/drainz", "", nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"draining":true`) {
		t.Fatalf("drainz: status %d body %s", code, body)
	}
	if !s.isDraining() {
		t.Fatal("drainz did not begin the drain")
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(buf.String(), "draining") {
		t.Fatalf("draining healthz: status %d body %q", resp.StatusCode, buf.String())
	}

	code, body = post(t, ts.URL+"/v1/measure", quickBeta, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain spec status %d, want 503; body %s", code, body)
	}

	code, body = post(t, ts.URL+"/drainz", "", nil)
	if code != http.StatusOK || !strings.Contains(string(body), "already") {
		t.Fatalf("second drainz: status %d body %s", code, body)
	}
}

// TestMetricsConservationUnderMixedTraffic is the accounting law on the
// coordinator path: under concurrent traffic mixing memo hits,
// coalescing, malformed requests, and failovers onto a half-dead pool,
// every request is accounted for exactly once —
//
//	requests == Σ endpoint requests == Σ endpoint Σ by_status
//	200s     == memo + coalesced + store + forwarded + local fallbacks
//	local fallbacks == executions
func TestMetricsConservationUnderMixedTraffic(t *testing.T) {
	// Two workers; one is killed before traffic starts so its share of
	// the key space exercises failover on every touch.
	_, w1 := newTestServer(t, Config{MaxConcurrent: 4, QueueDepth: 256})
	_, w2 := newTestServer(t, Config{MaxConcurrent: 4, QueueDepth: 256})
	addr1, addr2 := strings.TrimPrefix(w1.URL, "http://"), strings.TrimPrefix(w2.URL, "http://")

	d := cluster.NewDispatcher([]string{addr1, addr2}, fastClusterOpts())
	defer d.Close()
	coord, cts := newTestServer(t, Config{Dispatch: d, MaxConcurrent: 4, QueueDepth: 256})
	w2.Close() // dead successor/owner for half the keys

	// Mixed plan: valid specs cycling over 6 distinct keys (repeats
	// drive memo hits and coalescing), malformed bodies, and unknown
	// kinds. Every valid key whose ring owner is the dead worker
	// exercises a failover.
	const n = 36
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 6 {
			case 4:
				codes[i], _ = post(t, cts.URL+"/v1/measure", `{"kind":"beta"`, nil)
			case 5:
				codes[i], _ = post(t, cts.URL+"/v1/measure", `{"kind":"teleport"}`, nil)
			default:
				codes[i], _ = postSpec(t, cts.URL, sweepSpec(i%6))
			}
		}(i)
	}
	wg.Wait()

	n200, n400 := 0, 0
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			n200++
		case http.StatusBadRequest:
			n400++
		default:
			t.Fatalf("request %d: unexpected status %d", i, c)
		}
	}
	if n200 != 24 || n400 != 12 {
		t.Fatalf("status split %d/%d, want 24 OKs and 12 400s", n200, n400)
	}

	m := coord.Metrics()
	if m.Requests != n {
		t.Fatalf("requests = %d, want %d", m.Requests, n)
	}
	var endpointTotal, statusTotal, got200, got400 int64
	for _, ep := range m.Endpoints {
		endpointTotal += ep.Requests
		var sum int64
		for status, count := range ep.ByStatus {
			sum += count
			switch status {
			case "200":
				got200 += count
			case "400":
				got400 += count
			default:
				t.Fatalf("unexpected status bucket %q (%d requests)", status, count)
			}
		}
		if sum != ep.Requests {
			t.Fatalf("endpoint by_status sums to %d, endpoint requests = %d", sum, ep.Requests)
		}
		statusTotal += sum
	}
	if endpointTotal != m.Requests || statusTotal != m.Requests {
		t.Fatalf("endpoint totals %d/%d do not conserve requests %d", endpointTotal, statusTotal, m.Requests)
	}
	if got200 != int64(n200) || got400 != int64(n400) {
		t.Fatalf("by_status says %d/%d, clients saw %d/%d", got200, got400, n200, n400)
	}

	// Every 200 was served exactly one way.
	served := m.MemoHits + m.CoalescedHits + m.StoreHits + m.Cluster.Forwarded + m.Cluster.LocalFallbacks
	if served != int64(n200) {
		t.Fatalf("memo(%d) + coalesced(%d) + store(%d) + forwarded(%d) + fallbacks(%d) = %d, want %d",
			m.MemoHits, m.CoalescedHits, m.StoreHits, m.Cluster.Forwarded, m.Cluster.LocalFallbacks, served, n200)
	}
	// A local fallback is the only path into the simulator.
	if m.Executions != m.Cluster.LocalFallbacks {
		t.Fatalf("executions = %d, local fallbacks = %d; they must match", m.Executions, m.Cluster.LocalFallbacks)
	}
	// The dead worker owns some keys (ring split is ~50/50 over 6 keys),
	// so failovers must have happened — conservation held under them.
	if m.Cluster.Failovers == 0 {
		t.Log("note: no key was owned by the dead worker; failover path not exercised this run")
	}
	if m.ShedQueueFull != 0 || m.ShedDraining != 0 || m.Timeouts != 0 || m.Panics != 0 {
		t.Fatalf("unexpected sheds/timeouts/panics: %+v", m)
	}
}
