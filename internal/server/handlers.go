package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/runspec"
)

// maxBodyBytes bounds request bodies; a RunSpec is a few hundred bytes,
// so a megabyte is generous.
const maxBodyBytes = 1 << 20

// writeError emits the unified error envelope (internal/api):
// {"error":{"code":"…","message":"…"}}. The code is the stable
// machine-readable half of the contract; keep it one of the api.Code*
// constants.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(api.Envelope(code, msg))
}

func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// instrument wraps a handler with the per-endpoint counters: in-flight
// gauge and a latency histogram keyed by the final status.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.inFlight.Add(1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		s.metrics.inFlight.Add(-1)
		s.metrics.observe(endpoint, sw.status, time.Since(start).Microseconds())
	}
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

// recoverPanics converts a panicking handler into a 500 response. The
// simulators panic on contract violations (e.g. impossible machine
// shapes that pass shallow validation); the service must answer, not
// die.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.metrics.panics.Add(1)
				writeError(w, http.StatusInternalServerError, api.CodeInternal, fmt.Sprintf("internal error: %v", v))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// requestTimeout reads the client's deadline from the X-Timeout-Ms
// header or timeout_ms query parameter, falling back to the server
// default. Nonsense values fall back too — a garbled deadline should
// not fail an otherwise valid request.
func requestTimeout(r *http.Request, def time.Duration) time.Duration {
	raw := r.Header.Get("X-Timeout-Ms")
	if raw == "" {
		raw = r.URL.Query().Get("timeout_ms")
	}
	if raw == "" {
		return def
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms <= 0 || ms > math.MaxInt64/int64(time.Millisecond) {
		return def // past the bound, ms in nanoseconds wraps negative
	}
	return time.Duration(ms) * time.Millisecond
}

// handleHealthz answers "ok" while serving and 503 "draining" once
// BeginDrain has run. The 503 is what tells a coordinator's probe loop
// to route around a worker that is shutting down — paired with the
// dispatcher treating 503 as retryable, a drain sheds zero requests:
// in-flight work finishes here, new work spills to ring successors.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.isDraining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleDrainz moves the server into draining mode over HTTP — the
// graceful-drain hook for orchestrators that can't signal the process.
// Idempotent: the second POST reports "already draining". It does not
// wait for in-flight work; poll /metrics (in_flight) or let the process
// supervisor call Wait.
func (s *Server) handleDrainz(w http.ResponseWriter, _ *http.Request) {
	already := s.isDraining()
	s.BeginDrain()
	w.Header().Set("Content-Type", "application/json")
	if already {
		w.Write([]byte(`{"draining":true,"note":"already draining"}` + "\n"))
		return
	}
	w.Write([]byte(`{"draining":true}` + "\n"))
}

// The kind gates redirect known-but-misrouted kinds to the right
// endpoint; kinds outside the vocabulary fall through to Validate's
// "unknown kind" error.
func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) {
	s.handleSpec(w, r, runspec.KindBeta, func(k runspec.Kind) error {
		if k == runspec.KindEmulate {
			return fmt.Errorf("kind %q is not a measurement; POST /v1/emulate for emulations", k)
		}
		return nil
	})
}

func (s *Server) handleEmulate(w http.ResponseWriter, r *http.Request) {
	s.handleSpec(w, r, runspec.KindEmulate, func(k runspec.Kind) error {
		if k.IsMeasurement() {
			return fmt.Errorf("kind %q is not an emulation; POST /v1/measure for measurements", k)
		}
		return nil
	})
}

// handleSpec is the shared body of the two RunSpec endpoints: decode
// and validate, then resolve against the client's deadline.
func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request, defaultKind runspec.Kind, kindOK func(runspec.Kind) error) {
	if s.isDraining() {
		s.metrics.shed503.Add(1)
		writeError(w, http.StatusServiceUnavailable, api.CodeDraining, "server shutting down")
		return
	}
	var spec runspec.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadSpec, "malformed request body: "+err.Error())
		return
	}
	if spec.Kind == "" {
		spec.Kind = defaultKind
	}
	if err := kindOK(spec.Kind); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadSpec, err.Error())
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadSpec, err.Error())
		return
	}
	if spec.Kind != runspec.KindEmulate && spec.Machine == nil {
		writeError(w, http.StatusBadRequest, api.CodeBadSpec, fmt.Sprintf("runspec: kind %s needs a machine spec", spec.Kind))
		return
	}

	deadline := time.Now().Add(requestTimeout(r, s.cfg.DefaultTimeout))
	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	defer cancel()
	key := spec.Canonical()
	rp, err := s.resolve(ctx, spec, key, key, deadline, normalPriority)
	if err != nil {
		s.metrics.timeout.Add(1)
		rp = deadlineReply
	}
	if rp.status != http.StatusOK {
		writeError(w, rp.status, rp.code, rp.msg)
		return
	}
	writeBody(w, rp.body)
}

var deadlineReply = failure(http.StatusGatewayTimeout, api.CodeDeadline, "deadline expired before the result was ready")

// lead produces a new flight's answer, in order: the result store, the
// cluster (on a coordinator), local execution under admission; a
// forwarded or executed 200 is then recorded in the store. It runs on
// the leader's detached goroutine: no request deadline applies to local
// execution, so a slow simulation still lands for later callers even if
// every requester has given up. Forwards are the exception — deadline
// (the leader's client budget) bounds the cluster round trip and rides
// to the worker as X-Timeout-Ms, because a worker computing for a
// departed client helps nobody's cache but its own. The panic guard
// mirrors the HTTP-layer one — simulations run off the handler
// goroutine, so the middleware cannot see their panics.
func (s *Server) lead(spec runspec.Spec, key, ringKey string, deadline time.Time, prio priority) (r reply) {
	defer func() {
		if v := recover(); v != nil {
			s.metrics.panics.Add(1)
			r = failure(http.StatusInternalServerError, api.CodeInternal, fmt.Sprintf("internal error: %v", v))
		}
	}()
	if body, ok := s.stored(key); ok {
		s.metrics.storeHits.Add(1)
		return reply{body: body, status: http.StatusOK}
	}
	settled := false
	if s.cfg.Dispatch != nil {
		r, settled = s.forward(spec, ringKey, deadline)
	}
	if !settled {
		r = s.execute(spec, prio)
	}
	if r.status == http.StatusOK {
		s.recordResult(spec, key, r.body)
	}
	return r
}

// execute runs spec in this process once admission grants a slot.
func (s *Server) execute(spec runspec.Spec, prio priority) reply {
	acquire := s.admission.acquire
	if prio == lowPriority {
		acquire = s.admission.acquireLow
	}
	if err := acquire(s.execCtx); err != nil {
		if errors.Is(err, errQueueFull) {
			s.metrics.shed429.Add(1)
			return failure(http.StatusTooManyRequests, api.CodeQueueFull, "server overloaded: admission queue full")
		}
		s.metrics.shed503.Add(1)
		return failure(http.StatusServiceUnavailable, api.CodeDraining, "server shutting down")
	}
	defer s.admission.release()

	s.metrics.executed.Add(1)
	if spec.Shards == 0 {
		spec.Shards = s.cfg.Shards
	}
	res, err := runspec.ExecuteCached(s.artifacts, spec)
	if err != nil {
		return failure(http.StatusBadRequest, api.CodeBadSpec, err.Error())
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return failure(http.StatusInternalServerError, api.CodeInternal, "encoding result: "+err.Error())
	}
	return reply{body: append(buf, '\n'), status: http.StatusOK}
}

// ValidateWorkerBody is the strict forward validator a coordinator
// should run (wire it as cluster.Options.Validate): a worker's 200 body
// must decode as a runspec.Result with its kind set — not merely parse
// as JSON. json.Valid alone accepts `{}`, `null`, or a stray error
// shape; this catches anything that is not an actual result before the
// dispatcher accepts it, and forward below re-checks it as the last
// line of defense in front of the flight table and the store.
func ValidateWorkerBody(status int, body []byte) error {
	if status != http.StatusOK {
		return nil // error bodies are replayed to the client, never kept
	}
	var res runspec.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("worker 200 body is not a result: %v", err)
	}
	if res.Kind == "" {
		return fmt.Errorf("worker 200 body has no result kind (%d bytes)", len(body))
	}
	return nil
}

// forward hands the computation to the worker owning ringKey on the
// hash ring (ring successors on failure). settled=false means no worker
// answered and the caller runs it locally; the fallback is counted
// here. Forwarded work bypasses local admission — the worker's own
// queue is the backpressure point. The forward context is detached from
// the client connection but bounded by the leader's deadline; when the
// deadline itself killed the forward, the answer is a 504 rather than a
// local execution nobody is waiting for.
//
// A worker's 200 is validated and then served verbatim — the bytes are
// what this server would have produced itself, by the determinism
// contract. An invalid 200 body (truncated mid-flight, corrupted, wrong
// shape) marks the worker dead and falls back instead of poisoning the
// flight table and the store. A worker's non-retryable error is
// replayed with the worker's own code and message, so the client sees
// the same body a single-node server would have sent; a peer that
// answered without an envelope gets the status-derived code.
func (s *Server) forward(spec runspec.Spec, ringKey string, deadline time.Time) (r reply, settled bool) {
	wire, err := json.Marshal(spec)
	if err != nil {
		s.metrics.fallbackLocal.Add(1)
		return reply{}, false
	}
	ctx, cancel := context.WithDeadline(s.execCtx, deadline)
	defer cancel()
	res, ok := s.cfg.Dispatch.Forward(ctx, ringKey, spec.Kind.Endpoint(), wire)
	s.metrics.failovers.Add(int64(res.Failovers))
	if ok && ValidateWorkerBody(res.Status, res.Body) != nil {
		s.cfg.Dispatch.Health().MarkDead(res.Worker)
		s.cfg.Dispatch.Health().RecordFailure(res.Worker)
		ok = false
	}
	switch {
	case !ok && ctx.Err() != nil:
		return deadlineReply, true
	case !ok:
		s.metrics.fallbackLocal.Add(1)
		return reply{}, false
	}
	s.metrics.forwarded.Add(1)
	if res.Status == http.StatusOK {
		return reply{body: res.Body, status: http.StatusOK}, true
	}
	if code, msg, eok := api.ParseError(res.Body); eok {
		return failure(res.Status, code, msg), true
	}
	return failure(res.Status, api.CodeForStatus(res.Status), strings.TrimSpace(string(res.Body))), true
}

// handleTables serves the paper's reproduced tables as plain text:
// GET /v1/tables/{1..4}?j=2&k=2 — the same renderings nettables prints.
func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()
	j, err := queryInt(q.Get("j"), 2)
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadSpec, "bad j: "+err.Error())
		return
	}
	k, err := queryInt(q.Get("k"), 2)
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadSpec, "bad k: "+err.Error())
		return
	}
	// Render into a buffer first so a failed render can still serve a
	// clean error status instead of a truncated body.
	var buf bytes.Buffer
	err = core.WritePaperTable(&buf, id, j, k)
	if errors.Is(err, core.ErrUnknownTable) {
		writeError(w, http.StatusNotFound, api.CodeNotFound, err.Error())
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, api.CodeInternal, "rendering table: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(buf.Bytes())
}

func queryInt(raw string, def int) (int, error) {
	if raw == "" {
		return def, nil
	}
	return strconv.Atoi(raw)
}
