package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// A sweep response must be byte-for-byte the concatenation of the
// individual /v1/measure responses for its merged points — the contract
// CI's sweep-parity step checks over the wire.
func TestSweepMatchesIndividualMeasures(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 2})
	sweep := `{
	  "base": {"kind":"open-loop","machine":{"family":"Mesh","dim":2,"size":16},"rate":2,"ticks":60,"seed":3},
	  "points": [
	    {},
	    {"rate": 4},
	    {"rate": 6, "seed": 7},
	    {"machine": {"family":"Mesh","dim":2,"size":25}}
	  ]
	}`
	status, body := post(t, ts.URL+"/v1/sweep", sweep, nil)
	if status != http.StatusOK {
		t.Fatalf("sweep status = %d: %s", status, body)
	}

	individuals := []string{
		`{"kind":"open-loop","machine":{"family":"Mesh","dim":2,"size":16},"rate":2,"ticks":60,"seed":3}`,
		`{"kind":"open-loop","machine":{"family":"Mesh","dim":2,"size":16},"rate":4,"ticks":60,"seed":3}`,
		`{"kind":"open-loop","machine":{"family":"Mesh","dim":2,"size":16},"rate":6,"ticks":60,"seed":7}`,
		`{"kind":"open-loop","machine":{"family":"Mesh","dim":2,"size":25},"rate":2,"ticks":60,"seed":3}`,
	}
	var want strings.Builder
	for _, spec := range individuals {
		st, b := post(t, ts.URL+"/v1/measure", spec, nil)
		if st != http.StatusOK {
			t.Fatalf("measure status = %d: %s", st, b)
		}
		want.Write(b)
	}
	if string(body) != want.String() {
		t.Errorf("sweep response is not the concatenation of individual measures\nsweep:\n%s\nindividual:\n%s", body, want.String())
	}

	snap := srv.Metrics()
	if snap.Sweeps != 1 {
		t.Errorf("sweeps = %d, want 1", snap.Sweeps)
	}
	if snap.SweepPoints != 4 {
		t.Errorf("sweep_points = %d, want 4", snap.SweepPoints)
	}
	// All four points share one machine build and at most two engine
	// builds (two distinct sizes) — the amortization the endpoint exists
	// for. The individual /v1/measure calls after the sweep were memo
	// hits, so they added no builds.
	if got := srv.artifacts.MachineBuilds(); got != 2 {
		t.Errorf("machine builds = %d, want 2 (one per distinct size)", got)
	}
}

// A sweep of memoized points serves entirely from the response cache.
func TestSweepServesMemoHits(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	sweep := `{"base": ` + quickBeta + `, "points": [{}, {"seed": 4}]}`
	if status, body := post(t, ts.URL+"/v1/sweep", sweep, nil); status != http.StatusOK {
		t.Fatalf("cold sweep status = %d: %s", status, body)
	}
	before := srv.Metrics()
	if status, body := post(t, ts.URL+"/v1/sweep", sweep, nil); status != http.StatusOK {
		t.Fatalf("warm sweep status = %d: %s", status, body)
	}
	after := srv.Metrics()
	if hits := after.MemoHits - before.MemoHits; hits != 2 {
		t.Errorf("memo hits on warm sweep = %d, want 2", hits)
	}
	if execs := after.Executions - before.Executions; execs != 0 {
		t.Errorf("warm sweep ran %d simulations, want 0", execs)
	}
}

func TestSweepRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{"malformed", `{"base": {`},
		{"unknown field", `{"base": ` + quickBeta + `, "points": [{}], "extra": 1}`},
		{"no points", `{"base": ` + quickBeta + `, "points": []}`},
		{"emulate base", `{"base": {"kind":"emulate"}, "points": [{}]}`},
		{"invalid point", `{"base": ` + quickBeta + `, "points": [{"machine": {"family":"no-such-family","size":16}}]}`},
	}
	for _, tc := range cases {
		if status, body := post(t, ts.URL+"/v1/sweep", tc.body, nil); status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", tc.name, status, body)
		}
	}
}

// BenchmarkSweepEndpoint measures one warm 8-point sweep through the
// full HTTP pipeline. Every iteration uses fresh seeds so each point
// misses the memo cache and actually executes — the artifact cache (one
// machine, one engine, pooled sims across all points) is what keeps the
// per-point cost low.
func BenchmarkSweepEndpoint(b *testing.B) {
	s := New(Config{MaxConcurrent: 2})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	sweepBody := func(round int) string {
		var sb strings.Builder
		sb.WriteString(`{"base": {"kind":"open-loop","machine":{"family":"Mesh","dim":2,"size":256},"rate":2,"ticks":40,"seed":1}, "points": [`)
		for p := 0; p < 8; p++ {
			if p > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `{"seed": %d}`, round*8+p+1)
		}
		sb.WriteString("]}")
		return sb.String()
	}
	// Warm the artifact cache so the steady state is measured.
	if resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(sweepBody(-1))); err != nil {
		b.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(sweepBody(i)))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("sweep status = %d", resp.StatusCode)
		}
	}
}

func TestSweepShedsWhileDraining(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	srv.BeginDrain()
	sweep := `{"base": ` + quickBeta + `, "points": [{}]}`
	if status, _ := post(t, ts.URL+"/v1/sweep", sweep, nil); status != http.StatusServiceUnavailable {
		t.Errorf("draining sweep status = %d, want 503", status)
	}
}
