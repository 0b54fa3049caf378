package chaos

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

func mustParseChaosSpec(t testing.TB, spec string) Plan {
	t.Helper()
	plan, err := ParseChaosSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// horizon returns the latest timeline trigger in the plan (0 when the
// plan has no timeline events).
func horizon(p Plan) time.Duration {
	var h time.Duration
	for _, c := range p {
		if !c.Kind.probabilistic() && c.At > h {
			h = c.At
		}
	}
	return h
}

func TestParseChaosSpecHappyPath(t *testing.T) {
	plan, err := ParseChaosSpec("latency:200ms@p0.1,drop@p0.05,truncate@p0.02,freeze:w1@t30s,crash:w2@t60s,heal@t90s")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{
		{Kind: Latency, Delay: 200 * time.Millisecond, Prob: 0.1},
		{Kind: Drop, Prob: 0.05},
		{Kind: Truncate, Prob: 0.02},
		{Kind: Freeze, Worker: 1, At: 30 * time.Second},
		{Kind: Crash, Worker: 2, At: 60 * time.Second},
		{Kind: Heal, At: 90 * time.Second},
	}
	if !reflect.DeepEqual(plan, want) {
		t.Fatalf("plan = %v, want %v", plan, want)
	}
	if horizon(plan) != 90*time.Second {
		t.Fatalf("horizon = %v, want 90s", horizon(plan))
	}
	if plan.MaxWorker() != 2 {
		t.Fatalf("max worker = %d, want 2", plan.MaxWorker())
	}
}

func TestParseChaosSpecSortsTimelineAndKeepsProbOrder(t *testing.T) {
	plan, err := ParseChaosSpec("heal@t90s,drop@p0.5,crash:w1@t10s,latency:1ms@p0.25")
	if err != nil {
		t.Fatal(err)
	}
	got := plan.String()
	want := "drop@p0.5,latency:1ms@p0.25,crash:w1@t10s,heal@t1m30s"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestParseChaosSpecErrors(t *testing.T) {
	cases := []struct{ spec, want string }{
		{"", "empty"},
		{",", "empty"},
		{"latency@p0.1", "needs a duration"},
		{"latency:0s@p0.1", "bad latency duration"},
		{"latency:200ms", "no @p"},
		{"drop:3@p0.1", "takes no argument"},
		{"truncate@t5s", "needs @p"},
		{"drop@p0", "probability must be in (0,1]"},
		{"drop@p1.5", "probability must be in (0,1]"},
		{"drop@pNaN", "probability must be in (0,1]"},
		{"freeze@t5s", "needs a worker"},
		{"freeze:x1@t5s", "worker must look like w1"},
		{"crash:w0@t5s", "positive integer"},
		{"crash:w1@p0.5", "needs @t"},
		{"heal:2@t5s", "takes no argument"},
		{"heal@t-5s", "bad trigger time"},
		{"heal@x5s", "trigger must be"},
		{"reboot:w1@t5s", "unknown kind"},
	}
	for _, tc := range cases {
		if _, err := ParseChaosSpec(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseChaosSpec(%q) error %v, want mention of %q", tc.spec, err, tc.want)
		}
	}
}

func TestDecideIsDeterministicAndSeeded(t *testing.T) {
	plan := mustParseChaosSpec(t, "latency:1ms@p0.3,drop@p0.2")
	for i := uint64(0); i < 200; i++ {
		a := plan.Decide(7, i)
		b := plan.Decide(7, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("request %d: decisions differ across calls: %v vs %v", i, a, b)
		}
	}
	// The fire rate must track the probability (coarse bounds — this is
	// a hash, not an rng stream, but the law of large numbers applies).
	const n = 4000
	drops := 0
	for i := uint64(0); i < n; i++ {
		for _, f := range plan.Decide(7, i) {
			if f.Kind == Drop {
				drops++
			}
		}
	}
	if rate := float64(drops) / n; rate < 0.15 || rate > 0.25 {
		t.Fatalf("drop rate %.3f, want ~0.2", rate)
	}
	// Different seeds draw different coins.
	same := 0
	for i := uint64(0); i < 200; i++ {
		if reflect.DeepEqual(plan.Decide(1, i), plan.Decide(2, i)) {
			same++
		}
	}
	if same == 200 {
		t.Fatal("seeds 1 and 2 made identical decisions on 200 requests")
	}
}

func TestWorkerStateTimeline(t *testing.T) {
	plan := mustParseChaosSpec(t, "freeze:w1@t30s,crash:w2@t60s,heal@t90s")
	cases := []struct {
		worker int
		vt     time.Duration
		want   WorkerState
	}{
		{1, 0, OK},
		{1, 29 * time.Second, OK},
		{1, 30 * time.Second, Frozen},
		{1, 89 * time.Second, Frozen},
		{1, 90 * time.Second, OK},
		{2, 59 * time.Second, OK},
		{2, 60 * time.Second, Crashed},
		{2, 90 * time.Second, OK},
		{3, 60 * time.Second, OK},
	}
	for _, tc := range cases {
		if got := plan.WorkerStateAt(tc.worker, tc.vt); got != tc.want {
			t.Errorf("worker %d at %v: %v, want %v", tc.worker, tc.vt, got, tc.want)
		}
	}
}

// chaosBackend is a stock httptest server answering a fixed JSON body.
func chaosBackend(t *testing.T) (*httptest.Server, string) {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"kind":"beta","beta":2.5}` + "\n"))
	}))
	t.Cleanup(ts.Close)
	return ts, strings.TrimPrefix(ts.URL, "http://")
}

func get(t *testing.T, client *http.Client, url string) (*http.Response, []byte, error) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

func TestTransportDropAndPassThrough(t *testing.T) {
	ts, addr := chaosBackend(t)
	// drop@p1 fires on every request; a plan without drop passes through.
	dropAll := NewTransport(1, mustParseChaosSpec(t, "drop@p1"), []string{addr})
	if _, _, err := get(t, &http.Client{Transport: dropAll}, ts.URL); err == nil || !strings.Contains(err.Error(), "injected drop") {
		t.Fatalf("drop@p1 did not fail the request: %v", err)
	}
	clean := NewTransport(1, mustParseChaosSpec(t, "latency:1ms@p1"), []string{addr})
	resp, body, err := get(t, &http.Client{Transport: clean}, ts.URL)
	if err != nil || resp.StatusCode != 200 || !strings.Contains(string(body), "beta") {
		t.Fatalf("latency-only plan broke the request: %v %v %s", err, resp, body)
	}
	if tr := clean.Trace(); len(tr) != 1 || !strings.Contains(tr[0], "latency 1ms") {
		t.Fatalf("trace = %v, want one latency line", tr)
	}
}

func TestTransportTruncateIsSilent(t *testing.T) {
	ts, addr := chaosBackend(t)
	tr := NewTransport(1, mustParseChaosSpec(t, "truncate@p1"), []string{addr})
	resp, body, err := get(t, &http.Client{Transport: tr}, ts.URL)
	if err != nil {
		t.Fatalf("truncation must be silent at the transport layer: %v", err)
	}
	full := len(`{"kind":"beta","beta":2.5}` + "\n")
	if len(body) != full/2 {
		t.Fatalf("body length %d, want %d (half of %d)", len(body), full/2, full)
	}
	if resp.ContentLength != int64(full/2) {
		t.Fatalf("ContentLength %d not fixed up to %d", resp.ContentLength, full/2)
	}
}

func TestTransportCrashAndHealTimeline(t *testing.T) {
	ts, addr := chaosBackend(t)
	// Virtual time: 1s per request. Crash w1 at t2s, heal at t4s: requests
	// 0,1 pass, 2,3 fail, 4+ pass again.
	tr := NewTransport(1, mustParseChaosSpec(t, "crash:w1@t2s,heal@t4s"), []string{addr})
	client := &http.Client{Transport: tr}
	for i := 0; i < 6; i++ {
		_, _, err := get(t, client, ts.URL)
		wantErr := i == 2 || i == 3
		if wantErr && (err == nil || !strings.Contains(err.Error(), "crash of w1")) {
			t.Fatalf("request %d: expected injected crash, got %v", i, err)
		}
		if !wantErr && err != nil {
			t.Fatalf("request %d: unexpected error %v", i, err)
		}
	}
	if got := tr.idx.Load(); got != 6 {
		t.Fatalf("request counter %d, want 6", got)
	}
}

func TestTransportFreezeHangsUntilDeadline(t *testing.T) {
	ts, addr := chaosBackend(t)
	tr := NewTransport(1, mustParseChaosSpec(t, "freeze:w1@t0s"), []string{addr})
	client := &http.Client{Transport: tr}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	start := time.Now()
	_, err := client.Do(req)
	if err == nil {
		t.Fatal("frozen worker answered")
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("freeze returned after %v, before the 50ms deadline", elapsed)
	}
}

func TestTransportIgnoresTimelineForUnknownHosts(t *testing.T) {
	ts, _ := chaosBackend(t)
	// The pool names a different host, so crash:w1 never applies here.
	tr := NewTransport(1, mustParseChaosSpec(t, "crash:w1@t0s"), []string{"10.0.0.1:1"})
	if _, _, err := get(t, &http.Client{Transport: tr}, ts.URL); err != nil {
		t.Fatalf("timeline event leaked onto an out-of-pool host: %v", err)
	}
}
