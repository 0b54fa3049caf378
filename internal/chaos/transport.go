package chaos

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Error is the transport-level failure the injector returns for drop
// and crash faults, distinguishable from real network errors in logs.
type Error struct {
	Req   uint64
	Fault string
}

func (e *Error) Error() string {
	return fmt.Sprintf("chaos: injected %s (request %d)", e.Fault, e.Req)
}

// timePerRequest is the virtual-time quantum: request i runs at virtual
// time i × timePerRequest, which is what timeline clauses (@t30s) trigger
// against. So "t30s" means "from the 30th request on" — deterministic,
// unlike wall time.
const timePerRequest = time.Second

// Transport is the chaos http.RoundTripper: it wraps http.DefaultTransport
// and injects the plan's faults, with every decision a pure function of
// (seed, request index). Request indices are assigned atomically in
// issue order, so a sequential replay (cmd/netemuchaos's default) maps
// index i to the i-th request exactly; concurrent callers still get
// deterministic *decisions* per index, but which request draws which
// index then depends on scheduling.
//
// Install it as cluster.Options.Transport to aim chaos at a
// coordinator's forward path. Health probes deliberately do not pass
// through it — probe traffic is wall-clock-paced and would otherwise
// perturb the request-index stream that reproducibility keys off.
type Transport struct {
	seed    int64
	plan    Plan
	workers map[string]int // host:port -> 1-based pool index

	idx atomic.Uint64

	mu    sync.Mutex
	trace []string
}

// NewTransport builds the injector. workers is the pool in -workers
// order: workers[0] is w1 in the plan grammar. Requests to hosts
// outside the pool (or with the zero plan) pass through untouched aside
// from per-request faults, which apply to every request the transport
// carries.
func NewTransport(seed int64, plan Plan, workers []string) *Transport {
	index := make(map[string]int, len(workers))
	for i, w := range workers {
		index[w] = i + 1
	}
	return &Transport{
		seed:    seed,
		plan:    plan,
		workers: index,
	}
}

// Trace returns the injected-fault log: one line per fault, in
// injection order ("r0007 drop", "r0012 latency 50ms",
// "r0030 crashed w2"). With a sequential replay the trace is a pure
// function of (seed, plan, request count) — the reproducibility digest
// cmd/netemuchaos folds into its run summary.
func (t *Transport) Trace() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.trace...)
}

func (t *Transport) record(i uint64, format string, args ...any) {
	t.mu.Lock()
	t.trace = append(t.trace, fmt.Sprintf("r%04d ", i)+fmt.Sprintf(format, args...))
	t.mu.Unlock()
}

// RoundTrip applies the plan to one request: worker-lifecycle state
// first (crashed fails, frozen hangs until the request's deadline),
// then the per-request faults in clause order — latency sleeps, drop
// fails without forwarding, truncate forwards and then cuts the
// response body in half with headers fixed up, so only downstream body
// validation can tell.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	i := t.idx.Add(1) - 1
	vt := time.Duration(i) * timePerRequest

	if wid := t.workers[req.URL.Host]; wid > 0 {
		switch t.plan.WorkerStateAt(wid, vt) {
		case Crashed:
			t.record(i, "crashed w%d", wid)
			return nil, &Error{Req: i, Fault: fmt.Sprintf("crash of w%d", wid)}
		case Frozen:
			t.record(i, "frozen w%d", wid)
			<-req.Context().Done()
			return nil, req.Context().Err()
		}
	}

	truncate := false
	for _, f := range t.plan.Decide(t.seed, i) {
		switch f.Kind {
		case Latency:
			t.record(i, "latency %s", f.Delay)
			timer := time.NewTimer(f.Delay)
			select {
			case <-timer.C:
			case <-req.Context().Done():
				timer.Stop()
				return nil, req.Context().Err()
			}
		case Drop:
			t.record(i, "drop")
			return nil, &Error{Req: i, Fault: "drop"}
		case Truncate:
			truncate = true
		}
	}

	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || !truncate {
		return resp, err
	}

	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	cut := body[:len(body)/2]
	t.record(i, "truncate %d -> %d bytes", len(body), len(cut))
	resp.Body = io.NopCloser(bytes.NewReader(cut))
	resp.ContentLength = int64(len(cut))
	resp.Header.Set("Content-Length", strconv.Itoa(len(cut)))
	return resp, nil
}
