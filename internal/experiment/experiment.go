// Package experiment is a deterministic concurrent job orchestrator for the
// measurement suites. Every job — a β sweep point, an
// emulation bound check, a fault-tolerance trial — is identified by a stable
// key string and draws its randomness from a measure.SeedPlan stream
// addressed by that key, never from a shared RNG. Results therefore depend
// only on the base seed and the key, not on worker count, submission order,
// or goroutine scheduling: a suite run at -workers 1 and -workers 8 produces
// byte-identical output.
//
// A β measurement of a Build-identified machine (BetaFuture) is such a
// job, keyed by the measurement's canonical RunSpec string: report
// sections and the crossover tool that ask for the same machine under
// equivalent options draw the same stream and print the same value. The
// runner's artifact cache shares each deterministic machine and its
// routing engine across the jobs that measure it.
package experiment

import (
	"math/rand"
	"runtime"
	"sync/atomic"

	"repro/internal/measure"
	"repro/internal/runspec"
)

// MeasurementVersion names the semantics of measured values. Bump it
// whenever the simulator or estimators change measured numbers. netemud's
// result store labels every record with it and answers only from records
// of the current version, so results written by an older build go stale
// by construction.
const MeasurementVersion = "m4"

// Runner executes keyed jobs on a bounded worker pool. The zero value is
// not usable; construct with New.
type Runner struct {
	plan      measure.SeedPlan
	sem       chan struct{}
	artifacts *runspec.ArtifactCache
}

// New returns a runner rooted at the given base seed. workers caps the
// number of jobs executing concurrently; workers < 1 means GOMAXPROCS.
func New(seed int64, workers int) *Runner {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		plan:      measure.NewSeedPlan(seed),
		sem:       make(chan struct{}, workers),
		artifacts: runspec.NewArtifactCache(0, 0),
	}
}

// RNG returns the job stream for a key. It depends only on the runner's
// base seed and the key — two runners with the same seed hand out identical
// streams for identical keys regardless of call order.
func (r *Runner) RNG(key string) *rand.Rand {
	return r.plan.RNG(measure.KeyString(key))
}

// Future is the handle to a submitted job. Exactly one goroutine ever runs
// the job body; Wait blocks until the value is ready.
type Future[T any] struct {
	fn      func() T
	claimed atomic.Bool
	done    chan struct{}
	val     T
}

// Go submits fn as a job. fn receives a fresh RNG on the key's stream; the
// returned value depends only on (base seed, key, fn), never on scheduling.
//
// Deadlock safety: a job may Wait on futures of other jobs. If the awaited
// job has not started yet, Wait claims it and runs it inline on the waiting
// goroutine instead of blocking on a pool slot, so nested job graphs cannot
// starve the pool.
func Go[T any](r *Runner, key string, fn func(rng *rand.Rand) T) *Future[T] {
	f := newFuture(r, key, fn)
	f.submit(r)
	return f
}

// GoUnpooled runs fn immediately on its own goroutine, outside the worker
// cap. It is meant for cheap coordinator jobs that fan out pooled leaf jobs
// and spend their life blocked in Wait — counting those against the cap
// would let blocked coordinators starve the leaves doing the actual work.
// The determinism contract is the same as Go's.
func GoUnpooled[T any](r *Runner, key string, fn func(rng *rand.Rand) T) *Future[T] {
	f := newFuture(r, key, fn)
	go f.tryRun()
	return f
}

func newFuture[T any](r *Runner, key string, fn func(rng *rand.Rand) T) *Future[T] {
	rng := r.RNG(key)
	return &Future[T]{
		fn:   func() T { return fn(rng) },
		done: make(chan struct{}),
	}
}

func (f *Future[T]) submit(r *Runner) {
	go func() {
		r.sem <- struct{}{}
		defer func() { <-r.sem }()
		f.tryRun()
	}()
}

// tryRun executes the job body if no one has claimed it yet.
func (f *Future[T]) tryRun() {
	if f.claimed.CompareAndSwap(false, true) {
		f.val = f.fn()
		close(f.done)
	}
}

// Wait returns the job's value, running it inline if it has not started.
func (f *Future[T]) Wait() T {
	f.tryRun()
	<-f.done
	return f.val
}
