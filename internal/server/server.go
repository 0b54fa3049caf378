// Package server implements the netemud measurement service: the HTTP
// layer over the unified RunSpec API. Every measurement and emulation
// the CLIs expose is available as a POST of a serialized runspec.Spec;
// identity, memoization, coalescing, and the result store all key off
// spec.Canonical(), the same string the experiment orchestrator uses.
//
// Every spec — /v1/measure, /v1/emulate, each /v1/sweep point, and the
// background scheduler's points — takes one answer path (resolve):
//
//	parse → validate → flight table (memo hit, or join the identical
//	flight) → leader: result store → cluster forward → admission →
//	simulate → record in the store → publish
//
// Concurrent requests for the same canonical spec share one flight
// (singleflight); distinct specs pass a bounded admission queue (429
// when full, 503 while draining) and run under at most MaxConcurrent
// simulations. Each request carries a deadline; expiry serves 504 while
// the flight keeps running for other waiters and later callers. Panics
// in handlers or simulations become 500s, not crashes.
package server

import (
	"context"
	"net/http"
	"sync"
	"time"

	"repro/internal/runspec"
	"repro/internal/schedule"
	"repro/internal/server/cluster"
	"repro/internal/store"
)

// Config carries netemud's tuning knobs. The zero value is usable:
// serial simulations, a small queue, a one-minute default deadline, no
// result store.
type Config struct {
	// MaxConcurrent bounds simultaneous simulations (default 1).
	MaxConcurrent int
	// QueueDepth bounds how many computations may wait for a slot
	// before new ones are shed with 429 (default 16; negative = no
	// queue, shed whenever every slot is busy).
	QueueDepth int
	// DefaultTimeout is the per-request deadline when the client sends
	// none (default 60s). Clients lower it via the X-Timeout-Ms header
	// or timeout_ms query parameter.
	DefaultTimeout time.Duration
	// Shards is applied to specs that leave Shards at 0. Results are
	// shard-count-invariant by the determinism contract; this is purely
	// a throughput knob.
	Shards int
	// Dispatch, when non-nil, makes this server a cluster coordinator:
	// computations are forwarded to the worker owning the spec's
	// canonical key on the hash ring (ring successors on failure) and
	// only run locally when no worker answers. The caller owns the
	// dispatcher's lifecycle (Start before serving, Close on shutdown).
	Dispatch *cluster.Dispatcher
	// Store, when non-nil, durably records every 200 the spec endpoints
	// serve (append-only, content-keyed; see internal/store), answers
	// specs it already holds under this build's measurement version —
	// across restarts, and on a coordinator without crossing the
	// network — and enables the GET /v1/results, /v1/results/{key}, and
	// /v1/crossover read API. On a coordinator, forwarded results are
	// recorded after ValidateWorkerBody accepts them.
	Store *store.Store
	// SweepHub, when non-nil, is where the background sweep scheduler
	// publishes per-point progress; GET /v1/sweeps/stream serves it over
	// SSE. The caller owns the sweeper's lifecycle (see
	// schedule.Sweeper); the server only streams the hub.
	SweepHub *schedule.Hub
	// Role names this deployment's place in the topology for the
	// discovery endpoint: "single" (default), "coordinator", or
	// "worker".
	Role string
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent < 1 {
		c.MaxConcurrent = 1
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 16
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.Shards < 0 {
		c.Shards = 0
	}
	if c.Role == "" {
		c.Role = "single"
	}
	return c
}

// Server is the netemud HTTP service. Create with New, mount Handler,
// and on shutdown call BeginDrain then Wait.
type Server struct {
	cfg       Config
	mux       *http.ServeMux
	metrics   *metrics
	flights   flights
	admission *admission
	// artifacts is the default-bounded machine/engine cache local
	// executions run over, so warm sweep points (and repeated
	// measurements of one machine) skip the machine and engine builds
	// entirely.
	artifacts *runspec.ArtifactCache

	draining  chan struct{} // closed by BeginDrain
	drainOnce sync.Once
	execCtx   context.Context // cancels queued work on forced Close
	execStop  context.CancelFunc
	jobs      sync.WaitGroup // running computations
}

// New builds a Server. It does not listen; mount Handler on an
// http.Server (or httptest.Server) of your choosing.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		metrics:   newMetrics(),
		flights:   flights{m: make(map[string]*flight)},
		admission: newAdmission(cfg.MaxConcurrent, cfg.QueueDepth),
		artifacts: runspec.NewArtifactCache(0, 0),
		draining:  make(chan struct{}),
		execCtx:   ctx,
		execStop:  stop,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/measure", s.instrument("/v1/measure", s.handleMeasure))
	mux.HandleFunc("POST /v1/sweep", s.instrument("/v1/sweep", s.handleSweep))
	mux.HandleFunc("POST /v1/emulate", s.instrument("/v1/emulate", s.handleEmulate))
	mux.HandleFunc("GET /v1/tables/{id}", s.instrument("/v1/tables", s.handleTables))
	mux.HandleFunc("GET /v1/results", s.instrument("/v1/results", s.handleResults))
	mux.HandleFunc("GET /v1/results/{key}", s.instrument("/v1/results", s.handleResultByKey))
	mux.HandleFunc("GET /v1/crossover", s.instrument("/v1/crossover", s.handleCrossover))
	mux.HandleFunc("GET /v1/meta", s.instrument("/v1/meta", s.handleMeta))
	// The SSE stream is deliberately uninstrumented: a subscriber parked
	// for minutes would swamp the latency histograms with wall time.
	mux.HandleFunc("GET /v1/sweeps/stream", s.handleSweepsStream)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /drainz", s.handleDrainz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// Handler returns the root handler: the route mux wrapped in panic
// recovery, so a bug in any handler serves a 500 instead of killing the
// process.
func (s *Server) Handler() http.Handler { return s.recoverPanics(s.mux) }

// Metrics exposes the counters for tests and embedding processes. On a
// coordinator the snapshot carries the cluster section: pool size, how
// many workers currently answer /healthz, and the forward/failover/
// fallback counters the failover tests and dashboards read.
func (s *Server) Metrics() metricsSnapshot {
	snap := s.metrics.snapshot()
	if st := s.cfg.Store; st != nil {
		appends, dups, superseded := st.Counts()
		snap.Store = &storeReport{
			Records:      st.Len(),
			Appends:      appends,
			DupSkips:     dups,
			Superseded:   superseded,
			AppendErrors: s.metrics.storeErrors.Load(),
		}
	}
	if d := s.cfg.Dispatch; d != nil {
		snap.Cluster = &clusterReport{
			Workers:        len(d.Ring().Workers()),
			WorkersAlive:   d.Health().AliveCount(),
			Forwarded:      s.metrics.forwarded.Load(),
			Failovers:      s.metrics.failovers.Load(),
			LocalFallbacks: s.metrics.fallbackLocal.Load(),
		}
	}
	return snap
}

// BeginDrain moves the server into draining mode: new measurement and
// emulation requests are shed with 503, while requests already admitted
// — including computations still in the queue — run to completion. Call
// before http.Server.Shutdown so clients see an honest 503 rather than
// a reset connection.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() { close(s.draining) })
}

// Wait blocks until every started computation has finished or ctx
// expires, returning ctx.Err in the latter case.
func (s *Server) Wait(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.jobs.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close forces shutdown: queued computations are cancelled (their
// waiters see 503) and Wait-style draining is abandoned. Running
// simulations still finish — the simulator has no preemption points —
// but nothing new starts.
func (s *Server) Close() {
	s.BeginDrain()
	s.execStop()
}

func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}
