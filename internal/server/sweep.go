package server

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/runspec"
)

// maxSweepBodyBytes bounds sweep request bodies. A point is a sparse
// override of a few hundred bytes, so even a MaxSweepPoints sweep fits
// comfortably.
const maxSweepBodyBytes = 4 << 20

// handleSweep serves POST /v1/sweep: one base measurement spec plus a
// vector of knob points, streamed back point by point. Each point runs
// through exactly the /v1/measure answer path (resolve) under the
// point's own canonical key, so a sweep response is byte-for-byte the
// concatenation of the individual /v1/measure responses (CI diffs
// this).
//
// What the batch adds is affinity: points execute in order over the
// server's shared artifact cache, so every point after the first reuses
// the built machine, the engine's distance fields, and the pooled
// sims; and in cluster mode each point is dispatched by its *machine*
// key rather than its spec key, so a whole sweep lands on the one
// worker whose cache is hot for that machine.
//
// Errors: a bad sweep (malformed body, invalid point) is a plain 4xx
// before any point runs. Once streaming has begun the status line is
// gone, so a failing point appends its {"error": {...}} envelope where
// its result would have been and ends the stream.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.metrics.shed503.Add(1)
		writeError(w, http.StatusServiceUnavailable, api.CodeDraining, "server shutting down")
		return
	}
	var sw runspec.SweepSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSweepBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sw); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadSpec, "malformed request body: "+err.Error())
		return
	}
	specs, err := sw.Specs()
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadSpec, err.Error())
		return
	}
	s.metrics.sweeps.Add(1)

	// One deadline covers the whole sweep; a memo-warm sweep answers in
	// microseconds per point, so the budget is spent on cold points.
	deadline := time.Now().Add(requestTimeout(r, s.cfg.DefaultTimeout))
	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	defer cancel()

	flusher, _ := w.(http.Flusher)
	streamed := false
	for _, spec := range specs {
		rp, err := s.resolve(ctx, spec, spec.Canonical(), runspec.MachineKey(*spec.Machine), deadline, normalPriority)
		if err != nil {
			s.metrics.timeout.Add(1)
			rp = deadlineReply
		}
		if rp.status != http.StatusOK {
			if !streamed {
				// Nothing written yet: the sweep can still carry an
				// honest status line.
				writeError(w, rp.status, rp.code, rp.msg)
				return
			}
			w.Write(api.Envelope(rp.code, rp.msg))
			return
		}
		if !streamed {
			w.Header().Set("Content-Type", "application/json")
			streamed = true
		}
		s.metrics.sweepPoints.Add(1)
		w.Write(rp.body)
		if flusher != nil {
			flusher.Flush()
		}
	}
}
