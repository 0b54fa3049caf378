package server

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/experiment"
	"repro/internal/runspec"
	"repro/internal/store"
)

// metaDoc is the GET /v1/meta discovery document: everything a client
// or script previously had to hard-code about this deployment's
// surface. Fields are stable API; add, don't rename.
type metaDoc struct {
	Service string `json:"service"`
	// Role is "single", "coordinator", or "worker".
	Role string `json:"role"`
	// MeasurementVersion keys the caches and the store records; results
	// computed under a different version are not comparable.
	MeasurementVersion string `json:"measurement_version"`
	// CanonicalPrefix starts every canonical spec key.
	CanonicalPrefix string `json:"canonical_prefix"`
	// ResultKeyPrefix starts every /v1/results/{key} key.
	ResultKeyPrefix  string         `json:"result_key_prefix"`
	StoreEnabled     bool           `json:"store_enabled"`
	SchedulerEnabled bool           `json:"scheduler_enabled"`
	Endpoints        []endpointDoc  `json:"endpoints"`
	ErrorCodes       []errorCodeDoc `json:"error_codes"`
}

type endpointDoc struct {
	Method string `json:"method"`
	Path   string `json:"path"`
	Doc    string `json:"doc"`
}

type errorCodeDoc struct {
	Code string `json:"code"`
	// Status is the HTTP status the code ships with.
	Status int `json:"status"`
	// Retryable mirrors the cluster spill taxonomy: whether another
	// deployment of the same pool might answer differently right now.
	Retryable bool `json:"retryable"`
}

// handleMeta serves GET /v1/meta.
func (s *Server) handleMeta(w http.ResponseWriter, _ *http.Request) {
	doc := metaDoc{
		Service:            "netemud",
		Role:               s.cfg.Role,
		MeasurementVersion: experiment.MeasurementVersion,
		CanonicalPrefix:    runspec.CanonicalPrefix,
		ResultKeyPrefix:    store.KeyPrefix,
		StoreEnabled:       s.cfg.Store != nil,
		SchedulerEnabled:   s.cfg.SweepHub != nil,
		Endpoints: []endpointDoc{
			{"POST", "/v1/measure", "run one measurement RunSpec (beta, steady-beta, open-loop, fault-curve, lambda)"},
			{"POST", "/v1/emulate", "run one guest-on-host emulation RunSpec"},
			{"POST", "/v1/sweep", "run a base spec plus point overrides; streams concatenated /v1/measure bodies"},
			{"GET", "/v1/tables/{id}", "render the paper's Tables 1-4 as plain text"},
			{"GET", "/v1/results", "list stored results (filters: kind, family, since; pagination: limit, cursor)"},
			{"GET", "/v1/results/{key}", "one stored result body, byte-identical to the response that produced it"},
			{"GET", "/v1/crossover", "assemble the (guest, host) slowdown surface from stored emulations"},
			{"GET", "/v1/sweeps/stream", "SSE progress of the background sweep scheduler"},
			{"GET", "/v1/meta", "this document"},
			{"GET", "/healthz", "liveness (503 while draining)"},
			{"POST", "/drainz", "begin graceful drain"},
			{"GET", "/metrics", "service counters and per-endpoint latency"},
		},
		ErrorCodes: []errorCodeDoc{
			{api.CodeBadSpec, http.StatusBadRequest, false},
			{api.CodeQueueFull, http.StatusTooManyRequests, true},
			{api.CodeDraining, http.StatusServiceUnavailable, true},
			{api.CodeDeadline, http.StatusGatewayTimeout, false},
			{api.CodeNotFound, http.StatusNotFound, false},
			{api.CodeInternal, http.StatusInternalServerError, false},
		},
	}
	writeIndented(w, doc)
}

// handleSweepsStream serves GET /v1/sweeps/stream: the scheduler's
// progress as server-sent events. The hub replays its recent history
// to every new subscriber, so connecting after a one-shot sweep still
// shows the whole run. The stream ends when the client disconnects or
// the server drains.
func (s *Server) handleSweepsStream(w http.ResponseWriter, r *http.Request) {
	if s.cfg.SweepHub == nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "sweep scheduler disabled (start netemud with -sweeps FILE)")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, api.CodeInternal, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	frames, cancel := s.cfg.SweepHub.Subscribe()
	defer cancel()
	for {
		select {
		case frame, open := <-frames:
			if !open {
				return
			}
			if _, err := fmt.Fprint(w, frame); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		case <-s.draining:
			return
		}
	}
}

// RunScheduled executes one scheduled sweep point through the full
// answer path (resolve) at low admission priority (a free slot only,
// never queue depth, so pre-warming cannot shed or delay a client
// request). The result is recorded in the store like any served 200;
// the returned key is the store key the point landed under. This is the
// Runner the netemud main wires into schedule.NewSweeper.
func (s *Server) RunScheduled(ctx context.Context, spec runspec.Spec) (string, error) {
	if s.isDraining() {
		return "", fmt.Errorf("draining")
	}
	if err := spec.Validate(); err != nil {
		return "", err
	}
	key := spec.Canonical()
	ringKey := key
	if spec.Machine != nil {
		ringKey = runspec.MachineKey(*spec.Machine)
	}
	rp, err := s.resolve(ctx, spec, key, ringKey, time.Now().Add(s.cfg.DefaultTimeout), lowPriority)
	if err == nil && rp.status != http.StatusOK {
		err = fmt.Errorf("%s: %s", rp.code, rp.msg)
	}
	if err != nil {
		s.metrics.schedErrors.Add(1)
		return "", err
	}
	s.metrics.schedPoints.Add(1)
	return store.KeyOf(key), nil
}
