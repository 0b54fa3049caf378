package server

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/routing"
)

// Service counters, expvar-style: a flat JSON document of monotonic
// counters plus per-endpoint latency summaries. The histograms reuse
// routing.Histogram — the same streaming log-bucketed structure the
// simulator uses for queue depths — recording microseconds.

type metrics struct {
	inFlight  atomic.Int64
	requests  atomic.Int64 // all requests, any endpoint, any status
	coalesced atomic.Int64 // joined an in-flight identical computation
	memoHits  atomic.Int64 // served from a kept flight
	storeHits atomic.Int64 // served from the result store
	executed  atomic.Int64 // underlying simulations actually started
	shed429   atomic.Int64 // rejected: admission queue full
	shed503   atomic.Int64 // rejected: server draining
	timeout   atomic.Int64 // 504: deadline expired before the result
	panics    atomic.Int64 // handler panics converted to 500

	sweeps      atomic.Int64 // POST /v1/sweep requests accepted
	sweepPoints atomic.Int64 // sweep points streamed successfully

	storeAppends  atomic.Int64 // 200s durably appended to the result store
	storeErrors   atomic.Int64 // store appends that failed (serving unaffected)
	resultsServed atomic.Int64 // 200s from the /v1/results and /v1/crossover read path
	schedPoints   atomic.Int64 // scheduled sweep points that answered ok
	schedErrors   atomic.Int64 // scheduled sweep points that failed

	// Coordinator-only counters; surfaced under the "cluster" key of the
	// snapshot when a dispatcher is configured.
	forwarded     atomic.Int64 // computations answered by a worker
	failovers     atomic.Int64 // ring candidates skipped or failed en route
	fallbackLocal atomic.Int64 // computations run locally: no worker answered

	mu     sync.Mutex
	perEnd map[string]*endpointStats
}

type endpointStats struct {
	requests int64
	byStatus map[int]int64
	latency  routing.Histogram // microseconds
}

func newMetrics() *metrics {
	return &metrics{perEnd: make(map[string]*endpointStats)}
}

// observe records one finished request: endpoint, final status, wall time.
func (m *metrics) observe(endpoint string, status int, micros int64) {
	m.requests.Add(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.perEnd[endpoint]
	if st == nil {
		st = &endpointStats{byStatus: make(map[int]int64)}
		m.perEnd[endpoint] = st
	}
	st.requests++
	st.byStatus[status]++
	if micros < 0 {
		micros = 0
	}
	st.latency.Record(int(micros))
}

// snapshot flattens everything into an ordered, JSON-ready document.
type metricsSnapshot struct {
	Requests      int64                     `json:"requests"`
	InFlight      int64                     `json:"in_flight"`
	CoalescedHits int64                     `json:"coalesced_hits"`
	MemoHits      int64                     `json:"memo_hits"`
	StoreHits     int64                     `json:"store_hits"`
	Executions    int64                     `json:"executions"`
	ShedQueueFull int64                     `json:"shed_queue_full"`
	ShedDraining  int64                     `json:"shed_draining"`
	Timeouts      int64                     `json:"timeouts"`
	Panics        int64                     `json:"panics"`
	Sweeps        int64                     `json:"sweeps"`
	SweepPoints   int64                     `json:"sweep_points"`
	ResultsServed int64                     `json:"results_served"`
	SchedPoints   int64                     `json:"scheduled_points"`
	SchedErrors   int64                     `json:"scheduled_errors"`
	Store         *storeReport              `json:"store,omitempty"`
	Cluster       *clusterReport            `json:"cluster,omitempty"`
	Endpoints     map[string]endpointReport `json:"endpoints"`
}

// storeReport is the result store's conservation view: every served
// 200 either appended a record, deduplicated against an identical one,
// superseded a stale one, or errored — appends + dup_skips from the
// store itself must account for the server's store_appends counter.
type storeReport struct {
	Records      int   `json:"records"`
	Appends      int64 `json:"appends"`
	DupSkips     int64 `json:"dup_skips"`
	Superseded   int64 `json:"superseded"`
	AppendErrors int64 `json:"append_errors"`
}

// clusterReport is the coordinator's view of its pool: sizing, liveness,
// and where computations actually ran.
type clusterReport struct {
	Workers        int   `json:"workers"`
	WorkersAlive   int   `json:"workers_alive"`
	Forwarded      int64 `json:"forwarded"`
	Failovers      int64 `json:"failovers"`
	LocalFallbacks int64 `json:"local_fallbacks"`
}

type endpointReport struct {
	Requests  int64            `json:"requests"`
	ByStatus  map[string]int64 `json:"by_status"`
	LatencyUS latencyReport    `json:"latency_us"`
}

type latencyReport struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int     `json:"p50"`
	P90   int     `json:"p90"`
	P99   int     `json:"p99"`
	Max   int     `json:"max"`
}

func (m *metrics) snapshot() metricsSnapshot {
	snap := metricsSnapshot{
		Requests:      m.requests.Load(),
		InFlight:      m.inFlight.Load(),
		CoalescedHits: m.coalesced.Load(),
		MemoHits:      m.memoHits.Load(),
		StoreHits:     m.storeHits.Load(),
		Executions:    m.executed.Load(),
		ShedQueueFull: m.shed429.Load(),
		ShedDraining:  m.shed503.Load(),
		Timeouts:      m.timeout.Load(),
		Panics:        m.panics.Load(),
		Sweeps:        m.sweeps.Load(),
		SweepPoints:   m.sweepPoints.Load(),
		ResultsServed: m.resultsServed.Load(),
		SchedPoints:   m.schedPoints.Load(),
		SchedErrors:   m.schedErrors.Load(),
		Endpoints:     make(map[string]endpointReport),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, st := range m.perEnd {
		rep := endpointReport{
			Requests: st.requests,
			ByStatus: make(map[string]int64, len(st.byStatus)),
			LatencyUS: latencyReport{
				Count: st.latency.Count(),
				Mean:  st.latency.Mean(),
				P50:   st.latency.Quantile(0.50),
				P90:   st.latency.Quantile(0.90),
				P99:   st.latency.Quantile(0.99),
				Max:   st.latency.Max(),
			},
		}
		for code, n := range st.byStatus {
			rep.ByStatus[httpStatusKey(code)] = n
		}
		snap.Endpoints[name] = rep
	}
	return snap
}

func httpStatusKey(code int) string {
	// "200", "400", ... — string keys so the JSON map is legible.
	const digits = "0123456789"
	if code < 100 || code > 999 {
		return "other"
	}
	return string([]byte{digits[code/100], digits[code/10%10], digits[code%10]})
}

// handleMetrics serves the full snapshot — including the cluster
// section on coordinators, which the bare metrics struct cannot see.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Map keys marshal in sorted order, so the document is already
	// deterministic for readable diffs.
	snap := s.Metrics()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap)
}
