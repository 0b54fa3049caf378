package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/runspec"
)

// generated lists every input a workload sends: prefill, warm-up, and
// the first n window requests.
func generated(t *testing.T, name string, seed int64, n int) []request {
	t.Helper()
	w, err := newWorkload(name, seed, scale{div: 10})
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]request(nil), w.prefill...), w.warm...)
	for i := 0; i < n; i++ {
		r, ok := w.next(i)
		if !ok {
			break
		}
		all = append(all, r)
	}
	return all
}

// specsOf decodes the specs a request body carries (every point of a
// sweep), validating each.
func specsOf(r request) ([]runspec.Spec, error) {
	if r.method != http.MethodPost {
		return nil, nil
	}
	if r.class == classSweep {
		var sw runspec.SweepSpec
		if err := json.Unmarshal(r.body, &sw); err != nil {
			return nil, err
		}
		return sw.Specs()
	}
	var s runspec.Spec
	if err := json.Unmarshal(r.body, &s); err != nil {
		return nil, err
	}
	return []runspec.Spec{s}, s.Validate()
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a, b := generated(t, name, 3, 500), generated(t, name, 3, 500)
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d inputs for one seed", name, len(a), len(b))
		}
		for i := range a {
			if a[i].method != b[i].method || a[i].path != b[i].path || !bytes.Equal(a[i].body, b[i].body) {
				t.Fatalf("%s: input %d differs between two generations with one seed", name, i)
			}
		}
	}
}

func TestGeneratedSpecsValidate(t *testing.T) {
	for _, name := range workloadNames {
		n := 0
		for i, r := range generated(t, name, 5, 500) {
			specs, err := specsOf(r)
			if err != nil {
				t.Fatalf("%s input %d (%s %s): %v", name, i, r.method, r.path, err)
			}
			n += len(specs)
		}
		if n == 0 {
			t.Errorf("%s generated no specs", name)
		}
	}
}

func TestSeedsNeverShareKeys(t *testing.T) {
	keys := func(name string, seed int64) map[string]bool {
		out := map[string]bool{}
		for _, r := range generated(t, name, seed, 2000) {
			specs, err := specsOf(r)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range specs {
				out[s.Canonical()] = true
			}
		}
		return out
	}
	for _, name := range workloadNames {
		one, two := keys(name, 1), keys(name, 2)
		for k := range one {
			if two[k] {
				t.Fatalf("%s: seeds 1 and 2 share canonical key %s", name, k)
			}
		}
		if len(one) == 0 || len(two) == 0 {
			t.Fatalf("%s: no keys generated", name)
		}
	}
}

// measure-cold and sweep never repeat a spec within a run either.
func TestColdWorkloadsNeverRepeat(t *testing.T) {
	for _, name := range []string{"measure-cold", "sweep"} {
		seen := map[string]bool{}
		for _, r := range generated(t, name, 9, 1000) {
			specs, _ := specsOf(r)
			for _, s := range specs {
				if k := s.Canonical(); seen[k] {
					t.Fatalf("%s repeats %s", name, k)
				} else {
					seen[k] = true
				}
			}
		}
	}
}

// A hot-read result is read only after its POST was sent, at least the
// scaled gap earlier.
func TestHotReadReadsFollowPosts(t *testing.T) {
	w, err := newWorkload("hot-read", 4, scale{div: 10})
	if err != nil {
		t.Fatal(err)
	}
	posted := map[int]int{}
	for h := 0; h < w.history; h++ {
		posted[h] = -1 << 30
	}
	for _, r := range w.warm {
		posted[r.spec] = -1 << 30
	}
	gap := scale{div: 10}.of(hotRate/2, 20)
	reads := 0
	for i := 0; ; i++ {
		r, ok := w.next(i)
		if !ok {
			break
		}
		switch r.class {
		case classMeasure:
			if _, ok := posted[r.spec]; !ok {
				posted[r.spec] = i
			}
		case classResultKey:
			reads++
			at, ok := posted[r.spec]
			if !ok || at > i-gap {
				t.Fatalf("request %d reads spec %d, posted at %d (gap %d)", i, r.spec, at, gap)
			}
			if r.path != resultPath(w.specs[r.spec]) {
				t.Fatalf("request %d: path %s is not spec %d's key", i, r.path, r.spec)
			}
		}
	}
	if reads == 0 {
		t.Fatal("no result reads generated")
	}
}

func TestSplitStream(t *testing.T) {
	one := []byte("{\n  \"a\": 1\n}\n")
	two := []byte("{\n  \"b\": [\n    2\n  ]\n}\n")
	cases := []struct {
		body    []byte
		n       int
		wantErr bool
	}{
		{append(append([]byte(nil), one...), two...), 2, false},
		{one, 1, false},
		{nil, 0, false},
		{append(append([]byte(nil), one...), `{"error":{"code":"internal","message":"x"}}`+"\n"...), 0, true},
		{[]byte("{\n  \"a\": 1\n}"), 0, true}, // no trailing newline
	}
	for i, c := range cases {
		points, err := splitStream(c.body)
		if (err != nil) != c.wantErr {
			t.Errorf("case %d: err = %v", i, err)
			continue
		}
		if err == nil && len(points) != c.n {
			t.Errorf("case %d: %d points, want %d", i, len(points), c.n)
		}
		if i == 0 && (!bytes.Equal(points[0], one) || !bytes.Equal(points[1], two)) {
			t.Errorf("points are not the original bytes: %q", points)
		}
	}
}

func TestCheckSpans(t *testing.T) {
	ok := []span{
		{ID: 0, Parent: -1, Name: spanRequest, StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: spanHandler, StartNS: 0, EndNS: 60},
		{ID: 2, Parent: 1, Name: spanForward, StartNS: 10, EndNS: 50},
		{ID: 3, Parent: 0, Name: spanDecode, StartNS: 60, EndNS: 70},
	}
	if err := checkSpans(ok); err != nil {
		t.Fatal(err)
	}
	if got := selfTime(ok[0], []span{ok[1], ok[3]}); got != 30 {
		t.Errorf("request self time %v, want 30ns", got)
	}
	if got := selfTime(ok[1], []span{ok[2]}); got != 20 {
		t.Errorf("handler self time %v, want 20ns", got)
	}
	// Overlapping children cover their union once.
	if got := selfTime(span{StartNS: 0, EndNS: 10}, []span{{StartNS: 1, EndNS: 6}, {StartNS: 4, EndNS: 8}}); got != time.Duration(3) {
		t.Errorf("overlap self time %v, want 3ns", got)
	}
	bad := append([]span(nil), ok...)
	bad[2].EndNS = 70 // forward outlasts the handler
	if err := checkSpans(bad); err == nil {
		t.Error("a child outlasting its parent passed")
	}
	bad = append([]span(nil), ok...)
	bad[3].StartNS, bad[3].EndNS = 80, 75
	if err := checkSpans(bad); err == nil {
		t.Error("a span ending before it starts passed")
	}
}

func TestCounterRatiosTolerateMissingFields(t *testing.T) {
	before := map[string]any{"memo_hits": 10.0, "executions": 5.0}
	after := map[string]any{"memo_hits": 40.0, "executions": 15.0, "shed_queue_full": 0.0}
	got := map[string]float64{}
	for _, m := range counterRatios(before, after) {
		got[m.name] = m.value
	}
	want := map[string]float64{"server.memo_hit_ratio": 0.75, "server.executed_ratio": 0.25, "server.coalesced_ratio": 0, "cluster.forwarded_ratio": 0}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v (all: %v)", k, got[k], v, fmt.Sprint(got))
		}
	}
}

// TestWindowIsFixed: a -seconds other than the fixed window is refused
// before anything is built or run.
func TestWindowIsFixed(t *testing.T) {
	if code := run("sweep", 1, windowSeconds+1, false); code != 2 {
		t.Errorf("run with -seconds %d exited %d, want 2", windowSeconds+1, code)
	}
}
