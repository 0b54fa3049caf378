package schedule

import (
	"fmt"
	"sync"
)

// Hub fans scheduler progress events out to SSE subscribers. It keeps
// a bounded replay log so a subscriber that connects after a one-shot
// sweep has already run still sees every event — the CI store-query
// check depends on this: it boots netemud with a one-shot job, then
// connects, and must observe the sweep it missed.
type Hub struct {
	mu     sync.Mutex
	subs   map[chan string]struct{}
	replay []string
	closed bool
}

// replayEvents bounds the replay log. Scheduler jobs are a few hundred
// points at most; the log exists for late subscribers, not as a durable
// record (that's the store's job).
const replayEvents = 1024

// NewHub builds a hub retaining up to replayEvents past events.
func NewHub() *Hub {
	return &Hub{subs: make(map[chan string]struct{})}
}

// Publish renders one SSE frame ("event: <event>\ndata: <data>\n\n")
// into the replay log and every live subscriber. Slow subscribers drop
// frames rather than block the scheduler.
func (h *Hub) Publish(event, data string) {
	frame := fmt.Sprintf("event: %s\ndata: %s\n\n", event, data)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.replay = append(h.replay, frame)
	if len(h.replay) > replayEvents {
		h.replay = h.replay[len(h.replay)-replayEvents:]
	}
	for ch := range h.subs {
		select {
		case ch <- frame:
		default: // subscriber is not draining; skip it for this frame
		}
	}
}

// Subscribe registers a new subscriber: the channel first delivers the
// replay log, then live frames. Call cancel exactly once when done.
func (h *Hub) Subscribe() (frames <-chan string, cancel func()) {
	// Buffer covers the full replay log plus live headroom, so the
	// replay delivery below can never block under the lock.
	ch := make(chan string, replayEvents+256)
	h.mu.Lock()
	for _, frame := range h.replay {
		ch <- frame
	}
	if !h.closed {
		h.subs[ch] = struct{}{}
	} else {
		close(ch)
	}
	h.mu.Unlock()
	return ch, func() {
		h.mu.Lock()
		if _, ok := h.subs[ch]; ok {
			delete(h.subs, ch)
			close(ch)
		}
		h.mu.Unlock()
	}
}

// Close ends the hub: subscribers' channels close after any queued
// frames drain, and further Publish calls are dropped.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		close(ch)
		delete(h.subs, ch)
	}
}
