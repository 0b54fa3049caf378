package cluster

import (
	"net/http"
	"sync"
	"time"
)

// BreakerState is one worker's circuit-breaker position. Closed is the
// normal flow; Open means the worker accumulated failureThreshold
// consecutive forward failures (transport errors, invalid bodies, or
// retryable statuses) and is skipped without dialing or backoff; HalfOpen means a
// successful health probe has earned the worker exactly one trial
// request — a success closes the breaker, a failure re-opens it.
type BreakerState int

const (
	Closed BreakerState = iota
	Open
	HalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Health tracks which workers currently answer /healthz, and runs each
// worker's circuit breaker. Two signals feed liveness: a background
// probe loop (authoritative, runs every ProbeInterval) and MarkDead
// feedback from the dispatcher when a forward fails at the transport
// layer — the latter takes a worker out of rotation immediately instead
// of waiting out a probe period, and the next successful probe puts it
// back. The breaker rides on top: RecordFailure/RecordSuccess count
// consecutive forward failures, and once failureThreshold is hit the
// worker is skipped (Allow returns false) even if probes say it is
// alive — a worker that answers /healthz but flubs real work stays
// benched until a probe half-opens it and a trial request succeeds.
//
// Workers start alive with a closed breaker: a coordinator that boots
// before its pool should try to forward (and learn from the failures)
// rather than silently run everything locally until the first probe
// lands.
type Health struct {
	workers  []string
	interval time.Duration
	client   *http.Client

	mu      sync.Mutex
	alive   map[string]bool
	fails   map[string]int // consecutive forward failures
	breaker map[string]BreakerState
	started bool // under mu; whether Start launched anything to wait for

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// failureThreshold is how many consecutive failures open a worker's
// circuit breaker. Three keeps one blip from benching a healthy worker
// while still cutting a flapping one out before it absorbs a full
// backoff walk per request.
const failureThreshold = 3

// probeTimeout bounds one /healthz round trip.
const probeTimeout = time.Second

// NewHealth builds a prober over the worker pool. interval <= 0
// disables the background loop (MarkDead feedback still works — the
// unit tests and the dispatcher's transport feedback drive state by
// hand).
func NewHealth(workers []string, interval time.Duration) *Health {
	h := &Health{
		workers:  workers,
		interval: interval,
		client:   &http.Client{Timeout: probeTimeout},
		alive:    make(map[string]bool, len(workers)),
		fails:    make(map[string]int, len(workers)),
		breaker:  make(map[string]BreakerState, len(workers)),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, w := range workers {
		h.alive[w] = true
	}
	return h
}

// Start launches the probe loop (one immediate sweep, then every
// interval). No-op when the loop is disabled or the pool is empty.
func (h *Health) Start() {
	if h.interval <= 0 || len(h.workers) == 0 {
		return
	}
	h.mu.Lock()
	h.started = true
	h.mu.Unlock()
	go func() {
		defer close(h.done)
		h.probeAll()
		t := time.NewTicker(h.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				h.probeAll()
			case <-h.stop:
				return
			}
		}
	}()
}

// Stop ends the probe loop and waits for it to exit. Safe to call
// whether or not Start ever launched one.
func (h *Health) Stop() {
	h.stopOnce.Do(func() { close(h.stop) })
	h.mu.Lock()
	started := h.started
	h.mu.Unlock()
	if started {
		<-h.done
	}
}

func (h *Health) probeAll() {
	for _, w := range h.workers {
		h.markProbed(w, h.probe(w))
	}
}

// markProbed records one probe of worker. A live probe is how an open
// breaker earns its trial request: open -> half-open, and the next
// Forward attempt decides. A dead probe slams a half-open breaker shut
// again.
func (h *Health) markProbed(worker string, alive bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.alive[worker] = alive
	if alive && h.breaker[worker] == Open {
		h.breaker[worker] = HalfOpen
	} else if !alive && h.breaker[worker] == HalfOpen {
		h.breaker[worker] = Open
	}
}

func (h *Health) probe(worker string) bool {
	resp, err := h.client.Get("http://" + worker + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Allow reports whether worker should receive a forward: it must be
// alive and its breaker must not be open. A half-open breaker allows
// the request — that request is the trial.
func (h *Health) Allow(worker string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.alive[worker] && h.breaker[worker] != Open
}

// AliveCount returns how many workers are currently in rotation
// (alive and breaker not open).
func (h *Health) AliveCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for w, ok := range h.alive {
		if ok && h.breaker[w] != Open {
			n++
		}
	}
	return n
}

// RecordFailure counts one failed forward (transport error, invalid
// body, or retryable status) against worker's breaker. Hitting the
// threshold — or failing the half-open trial — opens it.
func (h *Health) RecordFailure(worker string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fails[worker]++
	if h.breaker[worker] == HalfOpen || h.fails[worker] >= failureThreshold {
		h.breaker[worker] = Open
	}
}

// RecordSuccess resets worker's failure streak and closes its breaker;
// the dispatcher calls it on every accepted forward.
func (h *Health) RecordSuccess(worker string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fails[worker] = 0
	h.breaker[worker] = Closed
}

// MarkDead takes a worker out of rotation until the next successful
// probe; the dispatcher calls it on transport-level forward failures.
func (h *Health) MarkDead(worker string) {
	h.mu.Lock()
	h.alive[worker] = false
	h.mu.Unlock()
}
