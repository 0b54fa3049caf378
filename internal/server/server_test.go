package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/runspec"
)

// newTestServer builds a Server plus its httptest front end. Callers own
// shutting the pair down; the cleanup drains computations so no
// simulation goroutine outlives its test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Wait(ctx); err != nil {
			t.Errorf("draining test server: %v", err)
		}
	})
	return s, ts
}

func post(t *testing.T, url, body string, header map[string]string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// quickBeta is a spec cheap enough to run inline in any test.
const quickBeta = `{"kind":"beta","machine":{"family":"Mesh","dim":2,"size":16},"load_factors":[2],"trials":1,"seed":3}`

// slowSpec returns an open-loop spec that simulates for about 50 ms on a
// 2-vCPU Xeon — long enough that concurrent requests reliably overlap
// it, short enough for test budgets, but no longer than a 50 ms client
// budget: a test that needs a worker to outlast one must hold the
// request itself. seed varies the canonical key between tests.
func slowSpec(seed int64) string {
	return fmt.Sprintf(`{"kind":"open-loop","machine":{"family":"Mesh","dim":2,"size":256},"rate":2,"ticks":30000,"seed":%d}`, seed)
}

func TestMeasureHappyPath(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	code, body := post(t, ts.URL+"/v1/measure", quickBeta, nil)
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, body)
	}
	var res runspec.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("response is not a RunResult: %v\n%s", err, body)
	}
	if res.Kind != runspec.KindBeta || res.Beta <= 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
	// The response must be the exact bytes Execute+MarshalIndent produce —
	// the same pipeline betameter -json uses, which is the parity contract.
	spec := runspec.Spec{
		Kind:        runspec.KindBeta,
		Machine:     &runspec.MachineSpec{Family: "Mesh", Dim: 2, Size: 16},
		LoadFactors: []int{2}, Trials: 1, Seed: 3,
	}
	want, err := runspec.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, _ := json.MarshalIndent(want, "", "  ")
	wantBytes = append(wantBytes, '\n')
	if !bytes.Equal(body, wantBytes) {
		t.Fatalf("response differs from direct Execute output:\ngot  %s\nwant %s", body, wantBytes)
	}
	// A repeat serves identical bytes from the memo cache.
	code2, body2 := post(t, ts.URL+"/v1/measure", quickBeta, nil)
	if code2 != http.StatusOK || !bytes.Equal(body, body2) {
		t.Fatalf("repeat request diverged: status %d", code2)
	}
	if m := s.Metrics(); m.MemoHits != 1 {
		t.Fatalf("memo hits = %d, want 1", m.MemoHits)
	}
}

func TestMalformedRequestsAre400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, endpoint, body, want string
	}{
		{"truncated json", "/v1/measure", `{"kind":"beta"`, "malformed"},
		{"unknown field", "/v1/measure", `{"kind":"beta","bogus":1}`, "malformed"},
		{"unknown kind", "/v1/measure", `{"kind":"teleport"}`, "unknown kind"},
		{"emulate on measure", "/v1/measure", `{"kind":"emulate"}`, "/v1/emulate"},
		{"measure on emulate", "/v1/emulate", `{"kind":"beta"}`, "/v1/measure"},
		{"missing machine", "/v1/measure", `{"kind":"lambda"}`, "machine spec"},
		{"bad rate", "/v1/measure", `{"kind":"open-loop","machine":{"family":"Mesh","dim":2,"size":16},"rate":-1,"ticks":100}`, "rate"},
		{"bad family", "/v1/measure", `{"kind":"beta","machine":{"family":"NoSuchNet","size":16}}`, "family"},
		{"emulate without host", "/v1/emulate", `{"kind":"emulate","guest":{"family":"Mesh","dim":2,"size":16},"steps":2}`, "guest and host"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := post(t, ts.URL+tc.endpoint, tc.body, nil)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", code, body)
			}
			var e api.ErrorBody
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("error body is not JSON: %s", body)
			}
			if e.Error.Code != api.CodeBadSpec {
				t.Fatalf("error code %q, want %q", e.Error.Code, api.CodeBadSpec)
			}
			if !strings.Contains(e.Error.Message, tc.want) {
				t.Fatalf("error %q does not mention %q", e.Error.Message, tc.want)
			}
		})
	}
}

func TestDeadlineExpiresAs504(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	code, body := post(t, ts.URL+"/v1/measure", slowSpec(11), map[string]string{"X-Timeout-Ms": "1"})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", code, body)
	}
	if m := s.Metrics(); m.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", m.Timeouts)
	}
	// The computation keeps running for the caches: once it lands, the
	// same spec serves instantly from memo even with a tiny deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	code2, _ := post(t, ts.URL+"/v1/measure", slowSpec(11), map[string]string{"X-Timeout-Ms": "1"})
	if code2 != http.StatusOK {
		t.Fatalf("post-completion status %d, want 200 from memo", code2)
	}
}

// TestOverflowingDeadlineFallsBack pins requestTimeout's bound: a client
// deadline whose nanosecond count overflows int64 falls back to the server
// default instead of wrapping negative and failing a fresh spec with 504.
func TestOverflowingDeadlineFallsBack(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const huge = "10000000000000" // ms
	spec := func(seed int) string {
		return fmt.Sprintf(`{"kind":"beta","machine":{"family":"Mesh","dim":2,"size":16},"load_factors":[2],"trials":1,"seed":%d}`, seed)
	}
	if code, body := post(t, ts.URL+"/v1/measure", spec(101), map[string]string{"X-Timeout-Ms": huge}); code != http.StatusOK {
		t.Fatalf("X-Timeout-Ms %s: status %d, want 200; body %s", huge, code, body)
	}
	if code, body := post(t, ts.URL+"/v1/measure?timeout_ms="+huge, spec(102), nil); code != http.StatusOK {
		t.Fatalf("timeout_ms=%s: status %d, want 200; body %s", huge, code, body)
	}
}

func TestShutdownDrainsInFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	type outcome struct {
		code int
		body []byte
	}
	started := make(chan struct{})
	done := make(chan outcome, 1)
	go func() {
		close(started)
		code, body := post(t, ts.URL+"/v1/measure", slowSpec(12), nil)
		done <- outcome{code, body}
	}()
	<-started
	// Give the request time to reach the flight table and start computing.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Executions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never started computing")
		}
		time.Sleep(5 * time.Millisecond)
	}

	s.BeginDrain()
	// New work is shed with 503...
	code, body := post(t, ts.URL+"/v1/measure", quickBeta, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d, want 503; body %s", code, body)
	}
	// ...while the in-flight request completes normally.
	got := <-done
	if got.code != http.StatusOK {
		t.Fatalf("in-flight request got %d during drain: %s", got.code, got.body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Wait(ctx); err != nil {
		t.Fatalf("drain did not finish: %v", err)
	}
}

// TestCoalescingSingleSimulation is the acceptance check: N identical
// in-flight requests cost exactly one underlying simulation, verified
// via the coalesced-hits metric, and every caller gets identical bytes.
// Run with -race.
func TestCoalescingSingleSimulation(t *testing.T) {
	const n = 8
	s, ts := newTestServer(t, Config{MaxConcurrent: 2, QueueDepth: 2 * n})
	spec := slowSpec(13)

	var wg sync.WaitGroup
	start := make(chan struct{})
	bodies := make([][]byte, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			codes[i], bodies[i] = post(t, ts.URL+"/v1/measure", spec, nil)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d returned different bytes", i)
		}
	}
	m := s.Metrics()
	if m.Executions != 1 {
		t.Fatalf("executions = %d, want exactly 1 underlying simulation", m.Executions)
	}
	if m.CoalescedHits+m.MemoHits != n-1 {
		t.Fatalf("coalesced (%d) + memo (%d) hits = %d, want %d",
			m.CoalescedHits, m.MemoHits, m.CoalescedHits+m.MemoHits, n-1)
	}
	if m.CoalescedHits < 1 {
		t.Fatalf("coalesced hits = %d, want at least 1 (requests did not overlap)", m.CoalescedHits)
	}
}

func TestQueueFullSheds429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: -1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		post(t, ts.URL+"/v1/measure", slowSpec(14), nil)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Executions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("occupying request never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The slot is held and the queue is empty-by-config: a different spec
	// must shed immediately.
	code, body := post(t, ts.URL+"/v1/measure", quickBeta, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body %s", code, body)
	}
	if m := s.Metrics(); m.ShedQueueFull != 1 {
		t.Fatalf("shed_queue_full = %d, want 1", m.ShedQueueFull)
	}
	<-done
}

func TestPanicRecoveryMiddleware(t *testing.T) {
	s := New(Config{})
	h := s.recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("synthetic handler bug")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var e api.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error.Message, "synthetic handler bug") {
		t.Fatalf("panic not surfaced: %s", rec.Body.String())
	}
	if e.Error.Code != api.CodeInternal {
		t.Fatalf("error code %q, want %q", e.Error.Code, api.CodeInternal)
	}
	if m := s.Metrics(); m.Panics != 1 {
		t.Fatalf("panics = %d, want 1", m.Panics)
	}
}

func TestTablesAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	for id, want := range map[string]string{
		"1": "Table 1", "2": "Table 2", "3": "Table 3", "4": "Table 4",
	} {
		resp, err := http.Get(ts.URL + "/v1/tables/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(buf.String(), want) {
			t.Fatalf("table %s: status %d, body %.80q", id, resp.StatusCode, buf.String())
		}
	}
	resp, err = http.Get(ts.URL + "/v1/tables/9")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("table 9 status %d, want 404", resp.StatusCode)
	}
}

// TestStoreServesAcrossRestarts: a second server over the same -store
// result store directory serves the first server's response bytes without
// running the simulator.
func TestStoreServesAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	_, _, url1 := newStoreServer(t, dir, Config{})
	code, body1 := post(t, url1+"/v1/measure", quickBeta, nil)
	if code != http.StatusOK {
		t.Fatalf("first server status %d", code)
	}

	s2, _, url2 := newStoreServer(t, dir, Config{})
	code, body2 := post(t, url2+"/v1/measure", quickBeta, nil)
	if code != http.StatusOK {
		t.Fatalf("second server status %d", code)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("restarted server served different bytes")
	}
	m := s2.Metrics()
	if m.StoreHits != 1 || m.Executions != 0 {
		t.Fatalf("restart: store_hits=%d executions=%d, want 1/0", m.StoreHits, m.Executions)
	}
}

// TestCanonicalCoalescingAcrossSpellings: the same measurement spelled
// with defaults omitted vs spelled out (and different shard counts)
// shares one canonical key, so the second spelling is a cache hit.
func TestCanonicalCoalescingAcrossSpellings(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	implicit := `{"kind":"beta","machine":{"family":"Mesh","dim":2,"size":16},"seed":4}`
	explicit := `{"kind":"beta","machine":{"family":"Mesh","dim":2,"size":16},"load_factors":[2,4,8],"trials":2,"strategy":"greedy","traffic":"symmetric","seed":4,"shards":3}`
	code, body1 := post(t, ts.URL+"/v1/measure", implicit, nil)
	if code != http.StatusOK {
		t.Fatalf("implicit spelling status %d", code)
	}
	code, body2 := post(t, ts.URL+"/v1/measure", explicit, nil)
	if code != http.StatusOK {
		t.Fatalf("explicit spelling status %d", code)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("spellings of the same spec returned different bytes")
	}
	m := s.Metrics()
	if m.Executions != 1 || m.MemoHits != 1 {
		t.Fatalf("executions=%d memo_hits=%d, want 1/1", m.Executions, m.MemoHits)
	}
}
