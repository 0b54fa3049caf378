package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/runspec"
	"repro/internal/schedule"
	"repro/internal/store"
)

// newStoreServer builds a test server recording into a store under
// dir, returning both. Reopening over the same dir across "restarts"
// is the point of several tests, so the store is opened explicitly.
func newStoreServer(t *testing.T, dir string, cfg Config) (*Server, *store.Store, string) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	s, ts := newTestServer(t, cfg)
	t.Cleanup(func() { st.Close() })
	return s, st, ts.URL
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// table4Specs is a representative slice of the paper's Table-4 machine
// families, cheap to measure (KindLambda: diameter plus sampled average
// distance) at small sizes.
func table4Specs() []runspec.Spec {
	families := []struct {
		family string
		dim    int
	}{
		{"LinearArray", 0}, {"Tree", 0}, {"X-Tree", 0},
		{"Mesh", 2}, {"Torus", 2}, {"X-Grid", 2}, {"Pyramid", 2},
		{"Butterfly", 0}, {"DeBruijn", 0}, {"ShuffleExchange", 0},
		{"WeakHypercube", 0},
	}
	specs := make([]runspec.Spec, 0, len(families))
	for _, f := range families {
		specs = append(specs, runspec.Spec{
			Kind:    runspec.KindLambda,
			Machine: &runspec.MachineSpec{Family: f.family, Dim: f.dim, Size: 16},
			Seed:    7,
		})
	}
	return specs
}

// TestStoreHitByteIdenticalAcrossTable4Machines is the acceptance
// contract: for every Table-4 machine measured through /v1/measure,
// GET /v1/results/{key} serves the exact fresh response bytes — in the
// same process, and again from a second server restarted over the same
// store directory (fresh memo, fresh index, rebuilt from the log).
func TestStoreHitByteIdenticalAcrossTable4Machines(t *testing.T) {
	dir := t.TempDir()
	_, _, url := newStoreServer(t, dir, Config{})

	fresh := make(map[string][]byte) // store key -> fresh /v1/measure body
	for _, spec := range table4Specs() {
		wire, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		code, body := post(t, url+"/v1/measure", string(wire), nil)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d body %s", spec.Machine.Family, code, body)
		}
		fresh[store.KeyOf(spec.Canonical())] = body
	}
	for key, want := range fresh {
		code, got := get(t, url+"/v1/results/"+key)
		if code != http.StatusOK {
			t.Fatalf("GET /v1/results/%s: status %d body %s", key, code, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("stored body for %s differs from the fresh response:\ngot  %s\nwant %s", key, got, want)
		}
	}

	// Restart: new server, new memo, same store dir. The rebuilt index
	// must serve every body byte-identically, before any recomputation.
	_, st2, url2 := newStoreServer(t, dir, Config{})
	if st2.Len() != len(fresh) {
		t.Fatalf("restarted store holds %d records, want %d", st2.Len(), len(fresh))
	}
	for key, want := range fresh {
		code, got := get(t, url2+"/v1/results/"+key)
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("after restart, stored body for %s drifted (status %d)", key, code)
		}
	}
}

func TestResultsListFiltersAndPagination(t *testing.T) {
	_, _, url := newStoreServer(t, t.TempDir(), Config{})
	for _, spec := range table4Specs() {
		wire, _ := json.Marshal(spec)
		if code, body := post(t, url+"/v1/measure", string(wire), nil); code != 200 {
			t.Fatalf("seeding: %d %s", code, body)
		}
	}
	code, body := post(t, url+"/v1/measure", quickBeta, nil)
	if code != 200 {
		t.Fatalf("seeding beta: %d %s", code, body)
	}

	var page resultsPage
	code, body = get(t, url+"/v1/results?kind=lambda")
	if code != 200 {
		t.Fatalf("list: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if page.Count != len(table4Specs()) {
		t.Fatalf("kind=lambda returned %d, want %d", page.Count, len(table4Specs()))
	}

	code, body = get(t, url+"/v1/results?family=Mesh")
	if err := json.Unmarshal(body, &page); code != 200 || err != nil {
		t.Fatalf("family filter: %d %v", code, err)
	}
	if page.Count != 2 { // lambda Mesh + quickBeta's Mesh
		t.Fatalf("family=Mesh returned %d, want 2", page.Count)
	}

	// Cursor walk in pages of 3 covers everything exactly once.
	seen := make(map[string]bool)
	cursor := ""
	for {
		code, body = get(t, url+"/v1/results?limit=3"+cursor)
		if code != 200 {
			t.Fatalf("page: %d %s", code, body)
		}
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatal(err)
		}
		for _, m := range page.Results {
			if seen[m.Key] {
				t.Fatalf("key %s served twice across pages", m.Key)
			}
			seen[m.Key] = true
		}
		if page.NextCursor == 0 {
			break
		}
		cursor = fmt.Sprintf("&cursor=%d", page.NextCursor)
	}
	if len(seen) != len(table4Specs())+1 {
		t.Fatalf("paged walk covered %d records, want %d", len(seen), len(table4Specs())+1)
	}

	// Bad query parameters are bad_spec, not 500s.
	code, body = get(t, url+"/v1/results?cursor=banana")
	var e api.ErrorBody
	if code != 400 || json.Unmarshal(body, &e) != nil || e.Error.Code != api.CodeBadSpec {
		t.Fatalf("bad cursor: %d %s", code, body)
	}
}

func TestResultsDisabledWithoutStore(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/results", "/v1/results/rk1-00", "/v1/crossover?guest=Mesh&host=Torus", "/v1/sweeps/stream"} {
		code, body := get(t, ts.URL+path)
		var e api.ErrorBody
		if code != http.StatusNotFound || json.Unmarshal(body, &e) != nil || e.Error.Code != api.CodeNotFound {
			t.Fatalf("%s without a store: %d %s", path, code, body)
		}
	}
}

func TestCrossoverAssemblesStoredEmulations(t *testing.T) {
	_, _, url := newStoreServer(t, t.TempDir(), Config{})
	for _, size := range []int{8, 16} {
		body := fmt.Sprintf(`{"kind":"emulate","guest":{"family":"LinearArray","size":%d},"host":{"family":"Mesh","dim":2,"size":%d},"steps":2}`, size, size)
		if code, b := post(t, url+"/v1/emulate", body, nil); code != 200 {
			t.Fatalf("emulate size %d: %d %s", size, code, b)
		}
	}
	// A measurement and a reversed orientation must not leak in.
	if code, b := post(t, url+"/v1/measure", quickBeta, nil); code != 200 {
		t.Fatalf("measure: %d %s", code, b)
	}

	code, body := get(t, url+"/v1/crossover?guest=LinearArray&host=Mesh")
	if code != 200 {
		t.Fatalf("crossover: %d %s", code, body)
	}
	var surface crossoverSurface
	if err := json.Unmarshal(body, &surface); err != nil {
		t.Fatal(err)
	}
	if surface.Count != 2 || len(surface.Points) != 2 {
		t.Fatalf("surface has %d points, want 2: %s", surface.Count, body)
	}
	if surface.Points[0].GuestSize >= surface.Points[1].GuestSize {
		t.Fatalf("surface not ordered by guest size: %+v", surface.Points)
	}
	for _, pt := range surface.Points {
		if pt.Slowdown <= 0 || !strings.HasPrefix(pt.Key, store.KeyPrefix) {
			t.Fatalf("malformed point: %+v", pt)
		}
	}
	// Reversed orientation matches nothing.
	code, body = get(t, url+"/v1/crossover?guest=Mesh&host=LinearArray")
	if err := json.Unmarshal(body, &surface); code != 200 || err != nil || surface.Count != 0 {
		t.Fatalf("reversed orientation: %d %s", code, body)
	}
}

// TestReadEndpointsSkipStaleVersions plants a record under another
// measurement version, with bytes the current build does not produce.
// GET /v1/results/{key} must not serve it and GET /v1/crossover must
// skip it; the listing still shows it with its version, and a fresh
// request supersedes it.
func TestReadEndpointsSkipStaleVersions(t *testing.T) {
	const spec = `{"kind":"emulate","guest":{"family":"LinearArray","size":8},"host":{"family":"Mesh","dim":2,"size":8},"steps":2}`
	_, ref := newTestServer(t, Config{})
	code, fresh := post(t, ref.URL+"/v1/emulate", spec, nil)
	if code != 200 {
		t.Fatalf("reference emulate: %d %s", code, fresh)
	}
	var res runspec.Result
	if err := json.Unmarshal(fresh, &res); err != nil || res.Emulation == nil {
		t.Fatalf("reference body: %v", err)
	}
	res.Emulation.Slowdown += 100
	old, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var s runspec.Spec
	if err := json.Unmarshal([]byte(spec), &s); err != nil {
		t.Fatal(err)
	}
	canonical := s.Canonical()
	key := store.KeyOf(canonical)
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta := storeMeta(s, canonical)
	meta.Version = "m-old"
	if _, err := st.Append(meta, old); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, _, url := newStoreServer(t, dir, Config{})
	code, body := get(t, url+"/v1/results/"+key)
	if code != http.StatusNotFound || !strings.Contains(string(body), "m-old") {
		t.Fatalf("stale record by key: %d %s, want 404 naming version m-old", code, body)
	}
	var surface crossoverSurface
	code, body = get(t, url+"/v1/crossover?guest=LinearArray&host=Mesh")
	if err := json.Unmarshal(body, &surface); code != 200 || err != nil || surface.Count != 0 {
		t.Fatalf("crossover served the stale record: %d %s", code, body)
	}
	code, body = get(t, url+"/v1/results")
	if code != 200 || !strings.Contains(string(body), `"m-old"`) {
		t.Fatalf("listing hides the stale record: %d %s", code, body)
	}

	if code, b := post(t, url+"/v1/emulate", spec, nil); code != 200 || !bytes.Equal(b, fresh) {
		t.Fatalf("emulate over a stale store: %d, bytes differ from a fresh node's", code)
	}
	code, body = get(t, url+"/v1/results/"+key)
	if code != 200 || !bytes.Equal(body, fresh) {
		t.Fatalf("superseded record by key: %d, bytes differ from the fresh response", code)
	}
}

func TestMetaDiscovery(t *testing.T) {
	_, _, url := newStoreServer(t, t.TempDir(), Config{Role: "coordinator", SweepHub: schedule.NewHub()})
	code, body := get(t, url+"/v1/meta")
	if code != 200 {
		t.Fatalf("meta: %d %s", code, body)
	}
	var doc metaDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Service != "netemud" || doc.Role != "coordinator" {
		t.Fatalf("identity: %+v", doc)
	}
	if !doc.StoreEnabled || !doc.SchedulerEnabled {
		t.Fatalf("enablement flags wrong: %+v", doc)
	}
	if doc.CanonicalPrefix != runspec.CanonicalPrefix || doc.ResultKeyPrefix != store.KeyPrefix {
		t.Fatalf("prefixes: %+v", doc)
	}
	if len(doc.Endpoints) == 0 || len(doc.ErrorCodes) != 6 {
		t.Fatalf("surface listing: %d endpoints, %d codes", len(doc.Endpoints), len(doc.ErrorCodes))
	}
	// Every route the server registers must appear in the listing.
	listed := make(map[string]bool)
	for _, e := range doc.Endpoints {
		listed[e.Method+" "+e.Path] = true
	}
	for _, want := range []string{"POST /v1/measure", "POST /v1/sweep", "GET /v1/results", "GET /v1/meta", "GET /v1/sweeps/stream"} {
		if !listed[want] {
			t.Fatalf("endpoint %q missing from /v1/meta", want)
		}
	}

	// Without store or scheduler, the flags flip and role defaults.
	_, ts := newTestServer(t, Config{})
	_, body = get(t, ts.URL+"/v1/meta")
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.StoreEnabled || doc.SchedulerEnabled || doc.Role != "single" {
		t.Fatalf("bare server meta: %+v", doc)
	}
}

// TestScheduledSweepLandsInStore is the scheduler acceptance path: a
// one-shot job runs through RunScheduled at low priority, every point
// lands in the store byte-identical to a direct /v1/measure, and the
// SSE stream — connected only after the sweep already finished — still
// observes the full run via the hub's replay log.
func TestScheduledSweepLandsInStore(t *testing.T) {
	hub := schedule.NewHub()
	s, st, url := newStoreServer(t, t.TempDir(), Config{SweepHub: hub})

	sweepJSON := `[{"name":"warm-mesh","sweep":{
		"base":{"kind":"lambda","machine":{"family":"Mesh","dim":2,"size":16},"seed":7},
		"points":[{"machine":{"family":"Mesh","dim":2,"size":16}},
		          {"machine":{"family":"Mesh","dim":2,"size":36}},
		          {"machine":{"family":"Torus","dim":2,"size":16}}]}}]`
	var jobs []schedule.SweepJob
	if err := json.Unmarshal([]byte(sweepJSON), &jobs); err != nil {
		t.Fatal(err)
	}
	frames, cancel := hub.Subscribe()
	defer cancel()
	sw := schedule.NewSweeper(jobs, s.RunScheduled, hub)
	sw.Start()
	defer sw.Stop()

	var finished schedule.Event
	for finished.Job == "" {
		select {
		case f := <-frames:
			if data, ok := strings.CutPrefix(f, "event: sweep-done\ndata: "); ok {
				if err := json.Unmarshal([]byte(data), &finished); err != nil {
					t.Fatal(err)
				}
			}
		case <-time.After(30 * time.Second):
			t.Fatal("sweep did not finish")
		}
	}
	if finished.Points != 3 || finished.Errors != 0 {
		t.Fatalf("scheduled sweep: %+v, want 3 points and no errors", finished)
	}
	if st.Len() != 3 {
		t.Fatalf("store holds %d records after the sweep, want 3", st.Len())
	}

	// Every stored point is byte-identical to the direct measurement.
	var cursor int64
	metas, _ := st.Query(store.Query{})
	_ = cursor
	for _, m := range metas {
		specJSON := strings.TrimPrefix(m.Canonical, runspec.CanonicalPrefix)
		code, fresh := post(t, url+"/v1/measure", specJSON, nil)
		if code != 200 {
			t.Fatalf("fresh measure for %s: %d", m.Key, code)
		}
		codeStored, stored := get(t, url+"/v1/results/"+m.Key)
		if codeStored != 200 || !bytes.Equal(stored, fresh) {
			t.Fatalf("scheduled point %s not byte-identical to fresh measure", m.Key)
		}
	}

	// Late subscriber sees the whole replayed run over SSE.
	resp, err := http.Get(url + "/v1/sweeps/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("stream: status %d type %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	events := make(map[string]int)
	keys := make(map[string]bool)
	sc := bufio.NewScanner(resp.Body)
	done := false
	timer := time.AfterFunc(10*time.Second, func() { resp.Body.Close() })
	defer timer.Stop()
	for !done && sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			events[name]++
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev schedule.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad event payload %q: %v", data, err)
			}
			if ev.Key != "" {
				keys[ev.Key] = true
			}
			if events["sweep-done"] > 0 {
				done = true
			}
		}
	}
	if events["sweep-start"] != 1 || events["point"] != 3 || events["sweep-done"] != 1 {
		t.Fatalf("replayed events: %v", events)
	}
	for _, m := range metas {
		if !keys[m.Key] {
			t.Fatalf("stored key %s never appeared on the stream", m.Key)
		}
	}
}

// TestStoreMetricsSection: the /metrics conservation extension — every
// spec 200 appends or dedups, and the store section accounts for it.
func TestStoreMetricsSection(t *testing.T) {
	s, _, url := newStoreServer(t, t.TempDir(), Config{})
	post(t, url+"/v1/measure", quickBeta, nil)
	post(t, url+"/v1/measure", quickBeta, nil) // memo hit: no second append
	snap := s.Metrics()
	if snap.Store == nil {
		t.Fatal("metrics missing the store section")
	}
	if snap.Store.Records != 1 || snap.Store.Appends != 1 {
		t.Fatalf("store section: %+v", snap.Store)
	}
	if snap.ResultsServed != 0 {
		t.Fatalf("results_served = %d before any read", snap.ResultsServed)
	}
	get(t, url+"/v1/results")
	if snap = s.Metrics(); snap.ResultsServed != 1 {
		t.Fatalf("results_served = %d after one read, want 1", snap.ResultsServed)
	}
}
