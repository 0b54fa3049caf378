package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/api"
)

// Options tunes a Dispatcher. The zero value gets sensible production
// defaults; tests shrink the intervals. One request tries every worker at
// most once.
type Options struct {
	// ProbeInterval between /healthz sweeps (default 2s; <= 0 in
	// NewDispatcher means "default", use Health directly to disable).
	ProbeInterval time.Duration
	// ForwardTimeout bounds one forwarded request attempt (default 90s —
	// above the worker's own 60s request deadline, so the worker's 504
	// arrives as a response rather than a transport failure).
	ForwardTimeout time.Duration
	// BackoffBase is the first retry's delay, doubling per attempt up to
	// BackoffMax (defaults 50ms and 1s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Transport, when non-nil, replaces the forward client's transport
	// — the chaos-injection seam (internal/chaos.Transport) and a proxy
	// hook for tests. Health probes do not pass through it.
	Transport http.RoundTripper
	// Validate, when non-nil, vets every answered forward before it is
	// accepted: a non-nil error is treated exactly like a transport
	// failure (worker marked dead, request moves to the ring
	// successor), which is what keeps a truncated or corrupted body out
	// of the coordinator's caches. Nil selects ValidJSONBody.
	Validate func(status int, body []byte) error
}

func (o Options) withDefaults() Options {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.ForwardTimeout <= 0 {
		o.ForwardTimeout = 90 * time.Second
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = time.Second
	}
	if o.Validate == nil {
		o.Validate = ValidJSONBody
	}
	return o
}

// ValidJSONBody is the default forward validator: a worker's 200 body
// must be well-formed JSON. Every 200 a netemud worker can legitimately
// produce is a complete JSON document, so a body truncated at the
// forward limit — or cut mid-flight with a fixed-up Content-Length —
// fails here and is treated as a transport failure instead of being
// cached and served verbatim forever. The server layer adds a stricter
// runspec.Result check on top (see server.ValidateWorkerBody).
func ValidJSONBody(status int, body []byte) error {
	if status != http.StatusOK {
		return nil // error bodies are replayed, never cached
	}
	if !json.Valid(body) {
		return fmt.Errorf("cluster: worker 200 body is not well-formed JSON (%d bytes)", len(body))
	}
	return nil
}

// ForwardResult is one answered forward: the worker's verbatim response
// bytes and status, who answered, and how many ring candidates were
// skipped or failed first (the failover count the coordinator's
// /metrics exposes).
type ForwardResult struct {
	Status    int
	Body      []byte
	Worker    string
	Failovers int
}

// Dispatcher routes spec requests across the worker pool: ring owner
// first, then ring successors on failure, with bounded exponential
// backoff between attempts. Safe for concurrent use.
type Dispatcher struct {
	ring   *Ring
	health *Health
	client *http.Client
	opts   Options
}

// NewDispatcher builds a dispatcher over the pool. Call Start to launch
// health probing and Close on shutdown.
func NewDispatcher(workers []string, opts Options) *Dispatcher {
	opts = opts.withDefaults()
	ring := NewRing(workers)
	return &Dispatcher{
		ring:   ring,
		health: NewHealth(ring.Workers(), opts.ProbeInterval),
		client: &http.Client{Timeout: opts.ForwardTimeout, Transport: opts.Transport},
		opts:   opts,
	}
}

// Start launches the background health prober.
func (d *Dispatcher) Start() { d.health.Start() }

// Close stops probing and releases idle connections.
func (d *Dispatcher) Close() {
	d.health.Stop()
	d.client.CloseIdleConnections()
}

// Ring exposes the hash ring (tests and diagnostics).
func (d *Dispatcher) Ring() *Ring { return d.ring }

// Health exposes the liveness tracker (tests and diagnostics).
func (d *Dispatcher) Health() *Health { return d.health }

// maxForwardBody bounds a worker response read; the largest legitimate
// response (a full open-loop snapshot) is well under a megabyte.
const maxForwardBody = 8 << 20

// retryable reports whether a worker's answer should move the request
// to the next ring successor. The decision keys on the error envelope's
// machine-readable code (api.Retryable: queue_full and draining mean
// "this worker can't take it right now"), never on message text.
// Everything else the worker said — bad_spec, its own deadline, an
// internal failure — is a real answer the client should see, identical
// on every worker by determinism.
//
// Two cases can't carry a worker envelope and fall back to status: a
// 502 is a proxy or transport layer breaking between us and the worker
// (netemud itself never emits one), and an unparseable error body from
// a non-netemud peer degrades to the historical status taxonomy.
func retryable(status int, body []byte) bool {
	if status == http.StatusBadGateway {
		return true
	}
	if code, _, ok := api.ParseError(body); ok {
		return api.Retryable(code)
	}
	return status == http.StatusTooManyRequests ||
		status == http.StatusServiceUnavailable
}

// Forward routes one spec request by its canonical key. It tries the
// key's ring owner, then each successor: transport failures and invalid
// bodies mark the worker dead (until a probe revives it) and move on;
// retryable statuses move on without the mark. Both count toward the
// worker's circuit breaker, and an open breaker skips the worker
// outright. Between attempts it sleeps the exponential backoff, giving
// a briefly unreachable worker its slice back instead of stampeding the
// successor. When ctx carries a deadline (the client's remaining
// budget), it is propagated to the worker as X-Timeout-Ms so a worker
// never computes past the point its coordinator's client has given up.
// ok is false when no worker answered — pool empty, every candidate
// dead or failed — and the caller should degrade to local execution.
func (d *Dispatcher) Forward(ctx context.Context, key, endpoint string, spec []byte) (res ForwardResult, ok bool) {
	attempts := 0
	for _, w := range d.ring.Successors(key) {
		if !d.health.Allow(w) {
			res.Failovers++
			continue
		}
		if attempts > 0 {
			if !d.backoff(ctx, attempts) {
				break
			}
		}
		attempts++
		status, body, err := d.post(ctx, w, endpoint, spec)
		if err == nil {
			err = d.opts.Validate(status, body)
		}
		if err != nil {
			if ctx.Err() != nil {
				break // the caller gave up, not the worker's fault
			}
			d.health.MarkDead(w)
			d.health.RecordFailure(w)
			res.Failovers++
			continue
		}
		if retryable(status, body) {
			d.health.RecordFailure(w)
			res.Failovers++
			continue
		}
		d.health.RecordSuccess(w)
		res.Status = status
		res.Body = body
		res.Worker = w
		return res, true
	}
	return ForwardResult{Failovers: res.Failovers}, false
}

// backoff sleeps the bounded exponential delay for retry number n,
// returning false if ctx expired first.
func (d *Dispatcher) backoff(ctx context.Context, n int) bool {
	delay := d.opts.BackoffBase << (n - 1)
	if delay > d.opts.BackoffMax || delay <= 0 {
		delay = d.opts.BackoffMax
	}
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func (d *Dispatcher) post(ctx context.Context, worker, endpoint string, spec []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+worker+endpoint, bytes.NewReader(spec))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	// Pass the client's remaining budget down so the worker's own
	// request deadline matches ours instead of its 60s default — a
	// worker should never burn queue slots computing an answer its
	// coordinator's client stopped waiting for.
	if deadline, ok := ctx.Deadline(); ok {
		ms := time.Until(deadline).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set("X-Timeout-Ms", strconv.FormatInt(ms, 10))
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	// Read one byte past the limit so an at-limit response is
	// distinguishable from an over-limit one: silently capping the read
	// would hand a truncated body to the caches as if it were complete.
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxForwardBody+1))
	if err != nil {
		return 0, nil, err
	}
	if len(body) > maxForwardBody {
		return 0, nil, fmt.Errorf("cluster: worker %s response exceeds %d-byte forward limit (truncated)", worker, maxForwardBody)
	}
	return resp.StatusCode, body, nil
}
