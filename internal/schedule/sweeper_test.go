package schedule

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runspec"
)

func writeJobs(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sweeps.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const oneJob = `[{"name":"warm","sweep":{
	"base":{"kind":"lambda","machine":{"family":"Mesh","dim":2,"size":16}},
	"points":[{"machine":{"family":"Mesh","dim":2,"size":16}},
	          {"machine":{"family":"Mesh","dim":2,"size":36}}]}}]`

func TestLoadJobsValidates(t *testing.T) {
	jobs, err := LoadJobs(writeJobs(t, oneJob))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Name != "warm" || jobs[0].EverySeconds != 0 {
		t.Fatalf("loaded: %+v", jobs)
	}

	for name, body := range map[string]string{
		"no name":        `[{"sweep":{"base":{"kind":"lambda","machine":{"family":"Mesh","dim":2,"size":16}},"points":[{}]}}]`,
		"duplicate name": `[{"name":"a","sweep":{"base":{"kind":"lambda","machine":{"family":"Mesh","dim":2,"size":16}},"points":[{}]}},{"name":"a","sweep":{"base":{"kind":"lambda","machine":{"family":"Mesh","dim":2,"size":16}},"points":[{}]}}]`,
		"bad sweep":      `[{"name":"a","sweep":{"base":{"kind":"nope"},"points":[{}]}}]`,
		"unknown field":  `[{"name":"a","cron":"* *","sweep":{"base":{"kind":"lambda","machine":{"family":"Mesh","dim":2,"size":16}},"points":[{}]}}]`,
		"not json":       `{]`,
	} {
		if _, err := LoadJobs(writeJobs(t, body)); err == nil {
			t.Errorf("%s: LoadJobs accepted it", name)
		}
	}

	if _, err := LoadJobs(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file: LoadJobs accepted it")
	}
}

func TestSweeperOneShotRunsOnceAndStreams(t *testing.T) {
	jobs, err := LoadJobs(writeJobs(t, oneJob))
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	hub := NewHub()
	sw := NewSweeper(jobs, func(_ context.Context, spec runspec.Spec) (string, error) {
		ran.Add(1)
		return fmt.Sprintf("rk1-%d", spec.Machine.Size), nil
	}, hub)
	early, cancelEarly := hub.Subscribe()
	defer cancelEarly()
	sw.Start()
	defer sw.Stop()

	if done := waitSweepDone(t, early, 1)[0]; done.Points != 2 || done.Errors != 0 {
		t.Fatalf("one-shot run: %+v, want 2 points and no errors", done)
	}
	// One-shot means once: give it a beat and confirm no rerun.
	time.Sleep(50 * time.Millisecond)
	if got := ran.Load(); got != 2 {
		t.Fatalf("runner called %d times, want 2", got)
	}

	// A late subscriber replays the full run.
	frames, cancel := hub.Subscribe()
	defer cancel()
	var all []string
	for len(all) < 4 {
		select {
		case f := <-frames:
			all = append(all, f)
		case <-time.After(2 * time.Second):
			t.Fatalf("replay stalled after %d frames: %q", len(all), all)
		}
	}
	joined := strings.Join(all, "")
	for _, want := range []string{"event: sweep-start", "event: point", "event: sweep-done", `"key":"rk1-16"`, `"key":"rk1-36"`} {
		if !strings.Contains(joined, want) {
			t.Fatalf("replay missing %q:\n%s", want, joined)
		}
	}
}

func TestSweeperRecurringAndErrorCounting(t *testing.T) {
	jobs := []SweepJob{{
		Name:         "tick",
		EverySeconds: 0.01,
		Sweep: runspec.SweepSpec{
			Base:   runspec.Spec{Kind: runspec.KindLambda, Machine: &runspec.MachineSpec{Family: "Mesh", Dim: 2, Size: 16}},
			Points: []runspec.SweepPoint{{}},
		},
	}}
	hub := NewHub()
	frames, cancel := hub.Subscribe()
	defer cancel()
	sw := NewSweeper(jobs, func(context.Context, runspec.Spec) (string, error) {
		return "", fmt.Errorf("boom")
	}, hub)
	sw.Start()
	defer sw.Stop()
	for _, done := range waitSweepDone(t, frames, 2) {
		if done.Points != 1 || done.Errors != 1 {
			t.Fatalf("failing run: %+v, want its one point counted as an error", done)
		}
	}
}

// waitSweepDone reads frames until n "sweep-done" events have arrived and
// returns their payloads.
func waitSweepDone(t *testing.T, frames <-chan string, n int) []Event {
	t.Helper()
	var done []Event
	timeout := time.After(5 * time.Second)
	for len(done) < n {
		select {
		case f := <-frames:
			data, ok := strings.CutPrefix(f, "event: sweep-done\ndata: ")
			if !ok {
				continue
			}
			var ev Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatal(err)
			}
			done = append(done, ev)
		case <-timeout:
			t.Fatalf("saw %d sweep-done events, want %d", len(done), n)
		}
	}
	return done
}

func TestHubSlowSubscriberDropsNotBlocks(t *testing.T) {
	hub := NewHub()
	frames, cancel := hub.Subscribe()
	defer cancel()
	// Publish far past the subscriber's buffer without draining; the
	// publisher must never block.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 5000; i++ {
			hub.Publish("point", fmt.Sprintf(`{"i":%d}`, i))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher blocked on a slow subscriber")
	}
	// The replay log stays bounded at its max.
	late, cancelLate := hub.Subscribe()
	defer cancelLate()
	count := 0
	for {
		select {
		case <-late:
			count++
			continue
		default:
		}
		break
	}
	if count != 1024 {
		t.Fatalf("late subscriber replayed %d frames, want 1024", count)
	}
	_ = frames
}

func TestHubCloseEndsSubscribers(t *testing.T) {
	hub := NewHub()
	frames, cancel := hub.Subscribe()
	defer cancel()
	hub.Publish("point", "{}")
	hub.Close()
	hub.Publish("point", "{}") // dropped, not a panic
	got := 0
	for range frames {
		got++
	}
	if got != 1 {
		t.Fatalf("drained %d frames after close, want 1", got)
	}
	// cancel after Close is a no-op, not a double-close panic.
	cancel()
}
