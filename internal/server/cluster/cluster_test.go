package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
)

// The ring contract: deterministic routing independent of pool listing
// order, every worker reachable in the successor chain exactly once,
// and a reasonably fair key-space split.

// alive reports whether worker currently answers probes (or has not yet
// been marked dead), ignoring the breaker.
func alive(h *Health, worker string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.alive[worker]
}

// breakerState returns worker's current breaker position.
func breakerState(h *Health, worker string) BreakerState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.breaker[worker]
}

func TestRingDeterministicAcrossConstructionOrder(t *testing.T) {
	a := NewRing([]string{"w1:1", "w2:2", "w3:3"})
	b := NewRing([]string{"w3:3", "w1:1", "w2:2"})
	for _, key := range []string{"runspec/v1/alpha", "runspec/v1/beta", "k", ""} {
		sa, sb := a.Successors(key), b.Successors(key)
		if strings.Join(sa, ",") != strings.Join(sb, ",") {
			t.Fatalf("key %q routes differently by construction order: %v vs %v", key, sa, sb)
		}
		if len(sa) != 3 {
			t.Fatalf("key %q successor chain %v does not cover the pool", key, sa)
		}
		seen := map[string]bool{}
		for _, w := range sa {
			if seen[w] {
				t.Fatalf("key %q successor chain repeats %q", key, w)
			}
			seen[w] = true
		}
	}
}

func TestRingEmptyAndDuplicatePools(t *testing.T) {
	if got := NewRing(nil).Successors("k"); got != nil {
		t.Fatalf("empty pool returned successors %v", got)
	}
	r := NewRing([]string{"w:1", "w:1", "", "w:1"})
	if got := r.Successors("k"); len(got) != 1 || got[0] != "w:1" {
		t.Fatalf("duplicate pool collapsed to %v, want [w:1]", got)
	}
}

func TestRingBalance(t *testing.T) {
	workers := []string{"a:1", "b:1", "c:1", "d:1"}
	r := NewRing(workers)
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[r.Successors(strings.Repeat("x", i%17) + string(rune('a'+i%26)) + strings.Repeat("k", i%7))[0]]++
	}
	for _, w := range workers {
		share := float64(counts[w]) / keys
		if share < 0.10 || share > 0.45 {
			t.Errorf("worker %s owns %.1f%% of keys, outside [10%%, 45%%]: %v", w, 100*share, counts)
		}
	}
}

// healthzServer is a minimal worker stand-in: /healthz plus a POST echo
// that records how many requests it served.
func healthzServer(t *testing.T, hits *atomic.Int64, status int, body string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("POST /", func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		w.WriteHeader(status)
		w.Write([]byte(body))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func addrOf(ts *httptest.Server) string { return strings.TrimPrefix(ts.URL, "http://") }

func TestHealthProbeMarksDeadAndRevives(t *testing.T) {
	var hits atomic.Int64
	ts := healthzServer(t, &hits, 200, "{}")
	w := addrOf(ts)
	h := NewHealth([]string{w}, 10*time.Millisecond)
	h.Start()
	defer h.Stop()

	if !alive(h, w) {
		t.Fatal("worker not alive at start")
	}
	// MarkDead feedback takes it out immediately; the probe loop revives
	// it because /healthz still answers.
	h.MarkDead(w)
	deadline := time.Now().Add(5 * time.Second)
	for !alive(h, w) {
		if time.Now().After(deadline) {
			t.Fatal("probe loop never revived a healthy worker")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Kill it for real: the probe loop must mark it dead.
	ts.Close()
	deadline = time.Now().Add(5 * time.Second)
	for alive(h, w) {
		if time.Now().After(deadline) {
			t.Fatal("probe loop never marked a dead worker")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h.AliveCount() != 0 {
		t.Fatalf("alive count %d, want 0", h.AliveCount())
	}
}

// fastOpts keeps dispatcher retries snappy inside tests.
func fastOpts() Options {
	return Options{
		ProbeInterval: time.Hour, // probes driven by hand
		BackoffBase:   time.Millisecond,
		BackoffMax:    4 * time.Millisecond,
	}
}

func TestForwardRoutesByRingOwner(t *testing.T) {
	var hits1, hits2 atomic.Int64
	ts1 := healthzServer(t, &hits1, 200, `{"from":"1"}`)
	ts2 := healthzServer(t, &hits2, 200, `{"from":"2"}`)
	d := NewDispatcher([]string{addrOf(ts1), addrOf(ts2)}, fastOpts())
	defer d.Close()

	// Every key must land on its ring owner, repeatably.
	for _, key := range []string{"ka", "kb", "kc", "kd", "ke"} {
		owner := d.Ring().Successors(key)[0]
		for i := 0; i < 3; i++ {
			res, ok := d.Forward(context.Background(), key, "/v1/measure", []byte("{}"))
			if !ok || res.Status != 200 {
				t.Fatalf("key %q forward failed: ok=%v res=%+v", key, ok, res)
			}
			if res.Worker != owner {
				t.Fatalf("key %q served by %s, ring owner is %s", key, res.Worker, owner)
			}
			if res.Failovers != 0 {
				t.Fatalf("key %q counted %d failovers on the happy path", key, res.Failovers)
			}
		}
	}
	if hits1.Load()+hits2.Load() != 15 {
		t.Fatalf("workers served %d+%d requests, want 15", hits1.Load(), hits2.Load())
	}
}

func TestForwardFailsOverToRingSuccessor(t *testing.T) {
	var hits1, hits2 atomic.Int64
	ts1 := healthzServer(t, &hits1, 200, `{"from":"1"}`)
	ts2 := healthzServer(t, &hits2, 200, `{"from":"2"}`)
	w1, w2 := addrOf(ts1), addrOf(ts2)
	d := NewDispatcher([]string{w1, w2}, fastOpts())
	defer d.Close()

	// Find a key owned by worker 1, then kill worker 1.
	key := "k0"
	for i := 0; d.Ring().Successors(key)[0] != w1; i++ {
		key = "k" + strings.Repeat("x", i)
	}
	ts1.Close()

	res, ok := d.Forward(context.Background(), key, "/v1/measure", []byte("{}"))
	if !ok || res.Status != 200 {
		t.Fatalf("failover forward failed: ok=%v res=%+v", ok, res)
	}
	if res.Worker != w2 {
		t.Fatalf("served by %s, want ring successor %s", res.Worker, w2)
	}
	if res.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", res.Failovers)
	}
	if alive(d.Health(), w1) {
		t.Fatal("transport failure did not mark the worker dead")
	}
	// The next forward for the same key skips the dead worker without
	// re-dialing it (still one failover, counted as a skip).
	res, ok = d.Forward(context.Background(), key, "/v1/measure", []byte("{}"))
	if !ok || res.Worker != w2 || res.Failovers != 1 {
		t.Fatalf("post-mark forward: ok=%v res=%+v", ok, res)
	}
}

func TestForwardRetryableStatusesMoveOn(t *testing.T) {
	var hits1, hits2 atomic.Int64
	ts1 := healthzServer(t, &hits1, http.StatusTooManyRequests, string(api.Envelope(api.CodeQueueFull, "server overloaded: admission queue full")))
	ts2 := healthzServer(t, &hits2, 200, `{"from":"2"}`)
	w1, w2 := addrOf(ts1), addrOf(ts2)
	d := NewDispatcher([]string{w1, w2}, fastOpts())
	defer d.Close()

	key := "k0"
	for i := 0; d.Ring().Successors(key)[0] != w1; i++ {
		key = "k" + strings.Repeat("x", i)
	}
	res, ok := d.Forward(context.Background(), key, "/v1/measure", []byte("{}"))
	if !ok || res.Status != 200 || res.Worker != w2 || res.Failovers != 1 {
		t.Fatalf("429 spill: ok=%v res=%+v", ok, res)
	}
	// A shed is not a death: the busy worker stays in rotation.
	if !alive(d.Health(), w1) {
		t.Fatal("429 marked a live worker dead")
	}
}

func TestForwardErrorStatusesPassThrough(t *testing.T) {
	var hits1, hits2 atomic.Int64
	ts1 := healthzServer(t, &hits1, http.StatusBadRequest, string(api.Envelope(api.CodeBadSpec, "runspec: unknown kind")))
	ts2 := healthzServer(t, &hits2, 200, `{}`)
	w1 := addrOf(ts1)
	d := NewDispatcher([]string{w1, addrOf(ts2)}, fastOpts())
	defer d.Close()

	key := "k0"
	for i := 0; d.Ring().Successors(key)[0] != w1; i++ {
		key = "k" + strings.Repeat("x", i)
	}
	res, ok := d.Forward(context.Background(), key, "/v1/measure", []byte("{}"))
	if !ok || res.Status != http.StatusBadRequest || res.Worker != w1 {
		t.Fatalf("400 must pass through from the owner: ok=%v res=%+v", ok, res)
	}
	if hits2.Load() != 0 {
		t.Fatal("a deterministic 400 was retried on the successor")
	}
}

func TestForwardEmptyOrDeadPoolReportsNotOK(t *testing.T) {
	d := NewDispatcher(nil, fastOpts())
	defer d.Close()
	if _, ok := d.Forward(context.Background(), "k", "/v1/measure", []byte("{}")); ok {
		t.Fatal("empty pool forwarded somewhere")
	}

	var hits atomic.Int64
	ts := healthzServer(t, &hits, 200, "{}")
	w := addrOf(ts)
	ts.Close()
	d2 := NewDispatcher([]string{w}, fastOpts())
	defer d2.Close()
	res, ok := d2.Forward(context.Background(), "k", "/v1/measure", []byte("{}"))
	if ok {
		t.Fatal("dead pool forwarded somewhere")
	}
	if res.Failovers != 1 {
		t.Fatalf("dead pool counted %d failovers, want 1", res.Failovers)
	}
	if _, ok := d2.Forward(context.Background(), "k", "/v1/measure", []byte("{}")); ok {
		t.Fatal("marked-dead pool forwarded somewhere")
	}
}

func TestBreakerOpensHalfOpensAndCloses(t *testing.T) {
	h := NewHealth([]string{"w:1"}, 0)
	if !h.Allow("w:1") || breakerState(h, "w:1") != Closed {
		t.Fatal("breaker not closed at start")
	}
	h.RecordFailure("w:1")
	h.RecordFailure("w:1")
	if !h.Allow("w:1") {
		t.Fatal("breaker opened below threshold")
	}
	h.RecordFailure("w:1")
	if h.Allow("w:1") || breakerState(h, "w:1") != Open {
		t.Fatalf("three consecutive failures did not open the breaker: %v", breakerState(h, "w:1"))
	}
	if h.AliveCount() != 0 {
		t.Fatalf("alive count %d with an open breaker, want 0", h.AliveCount())
	}
	// A successful probe earns one trial request.
	h.markProbed("w:1", true)
	if !h.Allow("w:1") || breakerState(h, "w:1") != HalfOpen {
		t.Fatalf("probe success did not half-open: %v", breakerState(h, "w:1"))
	}
	// Failing the trial re-opens immediately, no three-strike grace.
	h.RecordFailure("w:1")
	if h.Allow("w:1") || breakerState(h, "w:1") != Open {
		t.Fatalf("failed trial did not re-open: %v", breakerState(h, "w:1"))
	}
	// Passing the trial closes and resets the streak.
	h.markProbed("w:1", true)
	h.RecordSuccess("w:1")
	if breakerState(h, "w:1") != Closed {
		t.Fatalf("successful trial did not close: %v", breakerState(h, "w:1"))
	}
	h.RecordFailure("w:1")
	h.RecordFailure("w:1")
	if !h.Allow("w:1") {
		t.Fatal("streak was not reset by the success")
	}
}

func TestDispatcherOpensBreakerOnRepeatedRetryableStatuses(t *testing.T) {
	var hits1, hits2 atomic.Int64
	ts1 := healthzServer(t, &hits1, http.StatusServiceUnavailable, string(api.Envelope(api.CodeDraining, "server shutting down")))
	ts2 := healthzServer(t, &hits2, 200, `{"from":"2"}`)
	w1 := addrOf(ts1)
	d := NewDispatcher([]string{w1, addrOf(ts2)}, fastOpts())
	defer d.Close()

	key := "k0"
	for i := 0; d.Ring().Successors(key)[0] != w1; i++ {
		key = "k" + strings.Repeat("x", i)
	}
	for i := 0; i < failureThreshold+2; i++ {
		if _, ok := d.Forward(context.Background(), key, "/v1/measure", []byte("{}")); !ok {
			t.Fatalf("forward %d failed outright", i)
		}
	}
	if breakerState(d.Health(), w1) != Open {
		t.Fatalf("breaker state %v after %d straight 503s, want open", breakerState(d.Health(), w1), failureThreshold+2)
	}
	// 503s never mark a worker dead — only the breaker benches it.
	if !alive(d.Health(), w1) {
		t.Fatal("503s marked a live worker dead")
	}
	// Once open, the worker is skipped without dialing.
	before := hits1.Load()
	if _, ok := d.Forward(context.Background(), key, "/v1/measure", []byte("{}")); !ok {
		t.Fatal("forward with open breaker failed outright")
	}
	if hits1.Load() != before {
		t.Fatal("open breaker still dialed the worker")
	}
}

func TestForwardRejectsInvalidBodyAndFailsOver(t *testing.T) {
	var hits1, hits2 atomic.Int64
	// Worker 1 answers 200 with a body cut mid-JSON — exactly what a
	// chaos truncation (headers fixed up) looks like from here.
	ts1 := healthzServer(t, &hits1, 200, `{"kind":"beta","beta":2.`)
	ts2 := healthzServer(t, &hits2, 200, `{"kind":"beta","beta":2.5}`)
	w1, w2 := addrOf(ts1), addrOf(ts2)
	d := NewDispatcher([]string{w1, w2}, fastOpts())
	defer d.Close()

	key := "k0"
	for i := 0; d.Ring().Successors(key)[0] != w1; i++ {
		key = "k" + strings.Repeat("x", i)
	}
	res, ok := d.Forward(context.Background(), key, "/v1/measure", []byte("{}"))
	if !ok || res.Status != 200 || res.Worker != w2 {
		t.Fatalf("truncated body was not failed over: ok=%v res=%+v", ok, res)
	}
	if res.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", res.Failovers)
	}
	// Invalid bodies are transport failures: dead until a probe revives.
	if alive(d.Health(), w1) {
		t.Fatal("invalid 200 body did not mark the worker dead")
	}
}

func TestForwardCustomValidator(t *testing.T) {
	var hits1, hits2 atomic.Int64
	ts1 := healthzServer(t, &hits1, 200, `{"valid":"json","but":"wrong shape"}`)
	ts2 := healthzServer(t, &hits2, 200, `{"kind":"beta"}`)
	w1, w2 := addrOf(ts1), addrOf(ts2)
	opts := fastOpts()
	opts.Validate = func(status int, body []byte) error {
		if status == 200 && !strings.Contains(string(body), `"kind"`) {
			return context.DeadlineExceeded // any non-nil error
		}
		return nil
	}
	d := NewDispatcher([]string{w1, w2}, opts)
	defer d.Close()

	key := "k0"
	for i := 0; d.Ring().Successors(key)[0] != w1; i++ {
		key = "k" + strings.Repeat("x", i)
	}
	res, ok := d.Forward(context.Background(), key, "/v1/measure", []byte("{}"))
	if !ok || res.Worker != w2 {
		t.Fatalf("custom validator did not reject and fail over: ok=%v res=%+v", ok, res)
	}
}

func TestForwardPropagatesDeadlineAsTimeoutHeader(t *testing.T) {
	var gotHeader atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("ok\n")) })
	mux.HandleFunc("POST /", func(w http.ResponseWriter, r *http.Request) {
		ms, err := strconv.ParseInt(r.Header.Get("X-Timeout-Ms"), 10, 64)
		if err != nil {
			ms = -1
		}
		gotHeader.Store(ms)
		w.Write([]byte("{}"))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	d := NewDispatcher([]string{addrOf(ts)}, fastOpts())
	defer d.Close()

	// No deadline on the context: no header.
	if _, ok := d.Forward(context.Background(), "k", "/v1/measure", []byte("{}")); !ok {
		t.Fatal("forward failed")
	}
	if gotHeader.Load() != -1 {
		t.Fatalf("deadline-free forward sent X-Timeout-Ms %d", gotHeader.Load())
	}
	// A 2s client budget must arrive as a <=2000ms worker budget.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, ok := d.Forward(ctx, "k", "/v1/measure", []byte("{}")); !ok {
		t.Fatal("forward failed")
	}
	if ms := gotHeader.Load(); ms < 1 || ms > 2000 {
		t.Fatalf("worker saw X-Timeout-Ms %d, want in (0, 2000]", ms)
	}
}

func TestPostDetectsOverLimitResponse(t *testing.T) {
	var hits1, hits2 atomic.Int64
	big := strings.Repeat("x", maxForwardBody+1)
	ts1 := healthzServer(t, &hits1, 200, `{"pad":"`+big+`"}`)
	ts2 := healthzServer(t, &hits2, 200, `{"kind":"beta"}`)
	w1, w2 := addrOf(ts1), addrOf(ts2)
	d := NewDispatcher([]string{w1, w2}, fastOpts())
	defer d.Close()

	key := "k0"
	for i := 0; d.Ring().Successors(key)[0] != w1; i++ {
		key = "k" + strings.Repeat("x", i)
	}
	res, ok := d.Forward(context.Background(), key, "/v1/measure", []byte("{}"))
	if !ok || res.Worker != w2 {
		t.Fatalf("over-limit body was not treated as a failure: ok=%v res=%+v", ok, res)
	}
	if alive(d.Health(), w1) {
		t.Fatal("over-limit body did not mark the worker dead")
	}
}
