package server

import (
	"context"
	"net/http"
	"sync"
	"time"

	"repro/internal/runspec"
)

// The flight table: one entry per canonical RunSpec, in the shape
// runspec.ArtifactCache uses for its builds. A flight that has not
// finished is joined (concurrent requests for one spec share one
// answer — the key is runspec.Spec.Canonical(), so spellings that
// differ only in defaults or shard counts still coalesce); a finished
// 200 is a memo hit; a failed flight is dropped at finish, so the next
// request tries afresh.
//
// Retention is deliberately crude: the first memoCapEntries finished
// 200s stay for the life of the process (netemubench's memo probe
// relies on its warm-up answers never being evicted), later ones are
// served and then dropped (the result store, when attached, still
// answers them).
const memoCapEntries = 4096

// reply is one spec's answer: a 200 body, or the parts of an error
// envelope.
type reply struct {
	body   []byte
	status int
	code   string // api.Code* when status is an error
	msg    string
}

func failure(status int, code, msg string) reply {
	return reply{status: status, code: code, msg: msg}
}

// flight is one spec's answer. reply is written exactly once, before
// done closes; kept is guarded by flights.mu.
type flight struct {
	done  chan struct{}
	reply reply
	kept  bool
}

type flights struct {
	mu   sync.Mutex
	m    map[string]*flight
	kept int // finished 200s retained
}

// join returns key's flight: a kept one (hit), an unfinished one, or a
// new one that the caller leads and must finish.
func (t *flights) join(key string) (f *flight, leader, hit bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f, ok := t.m[key]; ok {
		return f, false, f.kept
	}
	f = &flight{done: make(chan struct{})}
	t.m[key] = f
	return f, true, false
}

// finish publishes a flight's answer, keeping it while the table has
// room and it is a 200, dropping it otherwise.
func (t *flights) finish(key string, f *flight, r reply) {
	t.mu.Lock()
	f.reply = r
	if r.status == http.StatusOK && t.kept < memoCapEntries {
		f.kept = true
		t.kept++
	} else {
		delete(t.m, key)
	}
	t.mu.Unlock()
	close(f.done)
}

type priority bool

const (
	normalPriority priority = false
	lowPriority    priority = true // scheduler points: free slots only
)

// resolve is the one answer path every spec takes — /v1/measure,
// /v1/emulate, each /v1/sweep point, and scheduled points: a memo hit,
// a join of the identical flight already running, or a new flight led
// on a detached goroutine (see lead) — then a wait for the answer until
// ctx is done, which returns ctx.Err(). The flight outlives an
// abandoned wait, so the answer still lands for later callers.
//
// key identifies the answer; ringKey picks the worker on the hash ring.
// They coincide for single requests; sweeps and scheduled points pass
// the machine key, so every point of a machine lands on the worker
// whose artifact cache is hot for it.
func (s *Server) resolve(ctx context.Context, spec runspec.Spec, key, ringKey string, deadline time.Time, prio priority) (reply, error) {
	f, leader, hit := s.flights.join(key)
	switch {
	case hit:
		s.metrics.memoHits.Add(1)
		return f.reply, nil
	case leader:
		s.jobs.Add(1)
		go func() {
			defer s.jobs.Done()
			s.flights.finish(key, f, s.lead(spec, key, ringKey, deadline, prio))
		}()
	default:
		s.metrics.coalesced.Add(1)
	}
	select {
	case <-f.done:
		return f.reply, nil
	case <-ctx.Done():
		return reply{}, ctx.Err()
	}
}
