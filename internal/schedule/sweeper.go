// Package schedule is netemud's background sweep scheduler: configured
// sweep specs run at intervals through the serving pipeline at low
// admission priority, stream per-point progress to the Hub, and land in
// the result store. This package owns the cadence and the event stream;
// the server owns execution (the Runner it passes in runs one point
// through its memo/coalesce/compute path and records the result).
package schedule

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/runspec"
)

// SweepJob is one configured recurring sweep.
type SweepJob struct {
	// Name labels the job in SSE events and logs. Required, unique.
	Name string `json:"name"`
	// EverySeconds is the rerun interval. <= 0 means one-shot: run once
	// at startup and stop. Reruns are cheap by design — every point
	// rides the server's memo and result store, so a steady-state rerun
	// costs one memo or store probe per point.
	EverySeconds float64 `json:"every_seconds,omitempty"`
	// Sweep is the base spec plus point overrides, exactly the POST
	// /v1/sweep request shape.
	Sweep runspec.SweepSpec `json:"sweep"`
}

// LoadJobs reads a JSON array of SweepJobs and validates each: a name,
// and a sweep whose points expand and validate.
func LoadJobs(path string) ([]SweepJob, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var jobs []SweepJob
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jobs); err != nil {
		return nil, fmt.Errorf("schedule: parsing %s: %v", path, err)
	}
	seen := make(map[string]bool)
	for i, j := range jobs {
		if j.Name == "" {
			return nil, fmt.Errorf("schedule: job %d has no name", i)
		}
		if seen[j.Name] {
			return nil, fmt.Errorf("schedule: duplicate job name %q", j.Name)
		}
		seen[j.Name] = true
		if _, err := j.Sweep.Specs(); err != nil {
			return nil, fmt.Errorf("schedule: job %q: %v", j.Name, err)
		}
	}
	return jobs, nil
}

// Runner executes one expanded sweep point through the server's
// pipeline, returning the stored result key. It is expected to run at
// low admission priority and to record the result durably.
type Runner func(ctx context.Context, spec runspec.Spec) (key string, err error)

// Event is the SSE payload for scheduler progress. Three event names
// share it: "sweep-start" (Point/Key empty), "point" (one finished
// point), and "sweep-done" (Errors counts the failed points).
type Event struct {
	Job    string `json:"job"`
	Run    int64  `json:"run"`              // 1-based run counter per job
	Points int    `json:"points"`           // points in this sweep
	Point  int    `json:"point,omitempty"`  // 1-based index, "point" events
	Key    string `json:"key,omitempty"`    // stored result key, ok points
	Status string `json:"status,omitempty"` // "ok" or "error", "point" events
	Error  string `json:"error,omitempty"`
	Errors int    `json:"errors,omitempty"` // failed points, "sweep-done"
}

// Sweeper drives the configured jobs. Start launches one goroutine per
// job; Stop cancels them and waits.
type Sweeper struct {
	jobs []SweepJob
	run  Runner
	hub  *Hub

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewSweeper builds a sweeper over jobs. hub may be nil (no events).
func NewSweeper(jobs []SweepJob, run Runner, hub *Hub) *Sweeper {
	return &Sweeper{jobs: jobs, run: run, hub: hub}
}

// Start launches the job loops. One-shot jobs (EverySeconds <= 0) run
// immediately and exit; recurring jobs run immediately, then on every
// tick.
func (s *Sweeper) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	for _, job := range s.jobs {
		s.wg.Add(1)
		go func(job SweepJob) {
			defer s.wg.Done()
			var run int64
			for {
				run++
				s.runOnce(ctx, job, run)
				if job.EverySeconds <= 0 {
					return
				}
				select {
				case <-ctx.Done():
					return
				case <-time.After(time.Duration(job.EverySeconds * float64(time.Second))):
				}
			}
		}(job)
	}
}

// Stop cancels every job loop and waits for in-flight points to
// finish.
func (s *Sweeper) Stop() {
	if s.cancel != nil {
		s.cancel()
	}
	s.wg.Wait()
}

func (s *Sweeper) publish(event string, ev Event) {
	if s.hub == nil {
		return
	}
	b, _ := json.Marshal(ev)
	s.hub.Publish(event, string(b))
}

func (s *Sweeper) runOnce(ctx context.Context, job SweepJob, run int64) {
	specs, err := job.Sweep.Specs()
	if err != nil {
		// Validated at load time; a failure here means the job was
		// mutated. Surface it as a zero-point errored run.
		s.publish("sweep-done", Event{Job: job.Name, Run: run, Errors: 1, Error: err.Error()})
		return
	}
	s.publish("sweep-start", Event{Job: job.Name, Run: run, Points: len(specs)})
	failed := 0
	for i, spec := range specs {
		if ctx.Err() != nil {
			return
		}
		key, err := s.run(ctx, spec)
		ev := Event{Job: job.Name, Run: run, Points: len(specs), Point: i + 1, Key: key, Status: "ok"}
		if err != nil {
			failed++
			ev.Status, ev.Error, ev.Key = "error", err.Error(), ""
		}
		s.publish("point", ev)
	}
	s.publish("sweep-done", Event{Job: job.Name, Run: run, Points: len(specs), Errors: failed})
}
