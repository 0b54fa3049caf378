package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/bench/stats"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/routing"
	"repro/internal/runspec"
	"repro/internal/server"
	"repro/internal/server/cluster"
	"repro/internal/store"
	"repro/internal/traffic"
)

// Span names. A request's root span has two kinds of children: the
// real server.handler call (with cluster.forward nested inside it,
// timed at the dispatcher's transport), and the ladder — each layer's
// public function called again, from here, on the same input and along
// the path the handler took. The program itself is not instrumented;
// server self time is the handler span minus the ladder on its path.
const (
	spanRequest   = "request"
	spanHandler   = "server.handler"
	spanDecode    = "server.decode"
	spanCanonical = "runspec.canonical"
	spanMachine   = "topology.build"
	spanEngine    = "routing.engine"
	spanExecute   = "runspec.execute"
	spanEncode    = "server.encode"
	spanAppend    = "store.append"
	spanGet       = "store.get"
	spanQuery     = "store.query"
	spanForward   = "cluster.forward"
	spanTables    = "core.tables"
)

// span is one timed call. Times are nanoseconds since the trace began.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a request root
	Request  int    `json:"request"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Answered string `json:"answered_by,omitempty"` // request roots only
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. Forward spans are
// recorded from the dispatcher's goroutine while the replay goroutine
// waits in the handler, hence the lock.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// where a forward span made now belongs
	curReq, curHandler int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), curReq: -1, curHandler: -1} }

func (t *tracer) begin(name string, parent, req int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Request: req, Name: name, StartNS: now, EndNS: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNS = now
	return t.spans[id].dur()
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent, req int, fn func()) time.Duration {
	id := t.begin(name, parent, req)
	fn()
	return t.end(id)
}

func (t *tracer) setCurrent(req, handler int) {
	t.mu.Lock()
	t.curReq, t.curHandler = req, handler
	t.mu.Unlock()
}

// forwardSpans times every forward the in-process coordinator makes,
// from the request leaving to its body being closed.
type forwardSpans struct {
	base http.RoundTripper
	tr   *tracer
}

func (f *forwardSpans) RoundTrip(req *http.Request) (*http.Response, error) {
	f.tr.mu.Lock()
	r, h := f.tr.curReq, f.tr.curHandler
	f.tr.mu.Unlock()
	if h < 0 {
		return f.base.RoundTrip(req) // warm-up, outside any traced request
	}
	id := f.tr.begin(spanForward, h, r)
	resp, err := f.base.RoundTrip(req)
	if err != nil {
		f.tr.end(id)
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() { f.tr.end(id) }}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (e *endOnClose) Close() error {
	err := e.ReadCloser.Close()
	e.once.Do(e.end)
	return err
}

// checkSpans enforces the trace's shape: every child lies inside its
// parent, so no self time is negative.
func checkSpans(spans []span) error {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
				return fmt.Errorf("span %d (%s) outlasts its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
			}
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		if self := selfTime(s, children[s.ID]); self < 0 {
			return fmt.Errorf("span %d (%s) has negative self time %v", s.ID, s.Name, self)
		}
	}
	return nil
}

// selfTime is s's duration minus the part of it its children cover.
func selfTime(s span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var covered, reach int64 = 0, s.StartNS
	for _, k := range kids {
		lo, hi := max(k.StartNS, reach), k.EndNS
		if hi > lo {
			covered += hi - lo
			reach = hi
		}
	}
	return s.dur() - time.Duration(covered)
}

// counts is the slice of a /metrics snapshot the answered-by path
// comes from. The replay is one goroutine, so deltas around one handler
// call belong to that request alone.
type counts struct {
	memo, executed, forwarded, results int64
}

func snapshot(srv *server.Server) counts {
	m := srv.Metrics()
	c := counts{memo: m.MemoHits, executed: m.Executions, results: m.ResultsServed}
	if m.Cluster != nil {
		c.forwarded = m.Cluster.Forwarded
	}
	return c
}

func (c counts) minus(o counts) counts {
	return counts{c.memo - o.memo, c.executed - o.executed, c.forwarded - o.forwarded, c.results - o.results}
}

// answeredBy names the path a request took, from its counter deltas.
func (c counts) answeredBy() string {
	var parts []string
	for _, p := range []struct {
		n    int64
		name string
	}{{c.memo, "memo"}, {c.executed, "executed"}, {c.forwarded, "forwarded"}, {c.results, "store"}} {
		if p.n > 0 {
			parts = append(parts, p.name)
		}
	}
	if len(parts) == 0 {
		return "handler"
	}
	return strings.Join(parts, "+")
}

// replayed is one traced request's summary.
type replayed struct {
	class    string
	points   int
	handler  time.Duration
	children time.Duration // ladder and nested forwards on its path
}

// replayer drives the in-process server and the ladder.
type replayer struct {
	tr      *tracer
	srv     *server.Server
	st      *store.Store // the in-process server's store (read calls)
	scratch *store.Store // where ladder appends land
	shadow  *runspec.ArtifactCache
	lookups struct{ machine, engine int }
	// builds the shadow cache made during the replay
	machineBuilds, engineBuilds int64
	done                        []replayed
	exec                        map[runspec.Kind][]float64 // runspec.execute ms by kind
}

// serve runs one request through the in-process handler.
func (x *replayer) serve(r request) (int, []byte) {
	rec := httptest.NewRecorder()
	x.srv.Handler().ServeHTTP(rec, httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body)))
	return rec.Code, rec.Body.Bytes()
}

// prepare mirrors the live setup's warm-up on the in-process server and
// the shadow artifact cache, then times memoProbe POSTs of warm-up specs
// through the handler, checking that the memo answered every one.
func (x *replayer) prepare(warm []request) ([]float64, error) {
	for _, r := range warm {
		if st, body := x.serve(r); st != http.StatusOK {
			return nil, fmt.Errorf("in-process warm-up %s: status %d: %.200s", r.path, st, body)
		}
		var s runspec.Spec
		if json.Unmarshal(r.body, &s) == nil && s.Machine != nil {
			x.shadow.Engine(*s.Machine, routing.Greedy)
		}
	}
	before := snapshot(x.srv)
	lat := make([]float64, 0, memoProbe)
	for k := 0; k < memoProbe; k++ {
		t0 := time.Now()
		st, body := x.serve(warm[k%len(warm)])
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
		if st != http.StatusOK {
			return nil, fmt.Errorf("in-process memo probe: status %d: %.200s", st, body)
		}
	}
	if got := snapshot(x.srv).minus(before).memo; got != memoProbe {
		return nil, fmt.Errorf("in-process memo probe: %d of %d answered from memo", got, memoProbe)
	}
	return lat, nil
}

// fetchCounters reads a node's GET /metrics document.
func fetchCounters(base string) (map[string]any, error) {
	c := &http.Client{Timeout: 10 * time.Second}
	defer c.CloseIdleConnections()
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return m, nil
}

// counter reads a counter by its JSON path; a missing one reads 0, so
// a renamed or removed counter never breaks the benchmark.
func counter(m map[string]any, path ...string) float64 {
	var v any = m
	for _, p := range path {
		obj, ok := v.(map[string]any)
		if !ok {
			return 0
		}
		v = obj[p]
	}
	f, _ := v.(float64)
	return f
}

// counterRatios turns the live counters' growth over the window into
// the serving layer's answer mix, each against the answers given.
func counterRatios(before, after map[string]any) []metric {
	d := func(path ...string) float64 { return counter(after, path...) - counter(before, path...) }
	memo, coalesced, executed := d("memo_hits"), d("coalesced_hits"), d("executions")
	forwarded := d("cluster", "forwarded")
	answers := memo + coalesced + executed + forwarded + d("disk_hits")
	shed := d("shed_queue_full") + d("shed_draining")
	return []metric{
		{"server.memo_hit_ratio", share(memo, answers), "ratio"},
		{"server.executed_ratio", share(executed, answers), "ratio"},
		{"server.coalesced_ratio", share(coalesced, answers), "ratio"},
		{"server.shed_ratio", share(shed, answers+shed), "ratio"},
		{"cluster.forwarded_ratio", share(forwarded, answers), "ratio"},
		{"cluster.failovers", d("cluster", "failovers"), "count"},
		{"cluster.local_fallbacks", d("cluster", "local_fallbacks"), "count"},
	}
}

// liveMemoProbe sends memoProbe POSTs of warm-up specs, one at a time
// on one connection, and checks through /metrics that the memo answered
// every one. Their latencies against the same POSTs in process give the
// HTTP layer's overhead.
func liveMemoProbe(base string, warm []request) ([]float64, error) {
	c := &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer c.CloseIdleConnections()
	before, err := fetchCounters(base)
	if err != nil {
		return nil, err
	}
	lat := make([]float64, 0, memoProbe)
	for k := 0; k < memoProbe; k++ {
		t0 := time.Now()
		st, body, err := send(c, base, warm[k%len(warm)])
		if err == nil && st != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", st, body)
		}
		if err != nil {
			return nil, fmt.Errorf("memo probe: %w", err)
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	after, err := fetchCounters(base)
	if err != nil {
		return nil, err
	}
	if got := counter(after, "memo_hits") - counter(before, "memo_hits"); got != memoProbe {
		return nil, fmt.Errorf("memo probe: %v of %d answered from memo", got, memoProbe)
	}
	return lat, nil
}

// replay sends one request through the handler and then along the
// ladder, and records the spans.
func (x *replayer) replay(id int, r request) (int, []byte) {
	root := x.tr.begin(spanRequest, -1, id)
	before := snapshot(x.srv)
	h := x.tr.begin(spanHandler, root, id)
	x.tr.setCurrent(id, h)
	status, body := x.serve(r)
	hdur := x.tr.end(h)
	x.tr.setCurrent(-1, -1)
	delta := snapshot(x.srv).minus(before)

	var kids time.Duration
	x.tr.mu.Lock()
	for _, s := range x.tr.spans[h+1:] {
		if s.Parent == h {
			kids += s.dur()
		}
	}
	x.tr.mu.Unlock()
	step := func(name string, fn func()) time.Duration {
		d := x.tr.timed(name, root, id, fn)
		kids += d
		return d
	}

	switch r.class {
	case classMeasure, classSweep:
		var specs []runspec.Spec
		if r.class == classMeasure {
			var s runspec.Spec
			step(spanDecode, func() { json.Unmarshal(r.body, &s) })
			step(spanCanonical, func() { s.Validate(); s.Canonical() })
			specs = []runspec.Spec{s}
		} else {
			// A sweep validates every point while merging it, so that
			// work is counted as decoding.
			step(spanDecode, func() {
				var sw runspec.SweepSpec
				json.Unmarshal(r.body, &sw)
				specs, _ = sw.Specs()
			})
			for _, s := range specs {
				step(spanCanonical, func() { s.Canonical() })
			}
		}
		// Points run in order and every sweep point is fresh, so the
		// executed ones are the first delta.executed.
		for k := 0; k < int(delta.executed) && k < len(specs); k++ {
			x.execute(specs[k], step)
		}
		if delta.forwarded > 0 && status == http.StatusOK {
			s := specs[0]
			step(spanAppend, func() { x.scratch.Append(metaOf(s), body) })
		}
	case classResultKey:
		step(spanGet, func() { x.st.Get(strings.TrimPrefix(r.path, "/v1/results/")) })
	case classResultQuery:
		q := queryOf(r.path)
		var page resultsPage
		step(spanQuery, func() { page.Results, page.NextCursor = x.st.Query(q) })
		page.Count = len(page.Results)
		step(spanEncode, func() { json.MarshalIndent(page, "", "  ") })
	case classOther:
		if id, ok := strings.CutPrefix(r.path, "/v1/tables/"); ok {
			step(spanTables, func() { renderTable(id) })
		}
	}
	x.tr.end(root)
	x.tr.mu.Lock()
	x.tr.spans[root].Answered = delta.answeredBy()
	x.tr.mu.Unlock()
	x.done = append(x.done, replayed{class: r.class, points: r.points, handler: hdur, children: kids})
	return status, body
}

// execute is the executed path's ladder: artifact lookups, the run,
// encoding, and the store append.
func (x *replayer) execute(s runspec.Spec, step func(string, func()) time.Duration) {
	if s.Kind != runspec.KindEmulate && s.Machine != nil {
		step(spanMachine, func() { x.shadow.Machine(*s.Machine) })
		x.lookups.machine++
		if strat, ok := engineStrategy(s); ok {
			step(spanEngine, func() { x.shadow.Engine(*s.Machine, strat) })
			x.lookups.engine++
		}
	}
	if s.Shards == 0 {
		s.Shards = 1 // netemud's default -shards
	}
	var res runspec.Result
	d := step(spanExecute, func() { res, _ = runspec.ExecuteCached(x.shadow, s) })
	x.exec[s.Kind] = append(x.exec[s.Kind], float64(d.Nanoseconds())/1e6)
	var body []byte
	step(spanEncode, func() {
		b, _ := json.MarshalIndent(res, "", "  ")
		body = append(b, '\n')
	})
	step(spanAppend, func() { x.scratch.Append(metaOf(s), body) })
}

// engineStrategy reports which cached engine a spec's execution looks
// up, if any: faulted and fault-curve runs build their own.
func engineStrategy(s runspec.Spec) (routing.Strategy, bool) {
	switch s.Kind {
	case runspec.KindBeta:
		st, err := runspec.ParseStrategy(s.Normalized().Strategy)
		return st, err == nil
	case runspec.KindSteadyBeta:
		return routing.Greedy, true
	case runspec.KindOpenLoop:
		return routing.Greedy, s.Faults == ""
	}
	return 0, false
}

// metaOf is the store index row netemud writes for a served spec.
func metaOf(s runspec.Spec) store.Meta {
	c := s.Canonical()
	m := store.Meta{Key: store.KeyOf(c), Canonical: c, Kind: string(s.Kind), Version: experiment.MeasurementVersion}
	if ms := s.Machine; ms != nil {
		m.Family, m.Dim, m.Size, m.Seed = ms.Family, ms.Dim, ms.Size, ms.Seed
	}
	return m
}

// renderTable renders one of the paper's tables the way GET
// /v1/tables/{id} does at its default j = k = 2.
func renderTable(id string) {
	var buf bytes.Buffer
	switch id {
	case "1":
		core.WriteTable(&buf, "Table 1", core.Table1(2, 2))
	case "2":
		core.WriteTable(&buf, "Table 2", core.Table2(2, 2))
	case "3":
		core.WriteTable(&buf, "Table 3", core.Table3(2))
	case "4":
		core.WriteTable4(&buf, 2)
	}
}

// resultsPage has the shape of a GET /v1/results answer.
type resultsPage struct {
	Results    []store.Meta `json:"results"`
	NextCursor int64        `json:"next_cursor"`
	Count      int          `json:"count"`
}

// queryOf parses a GET /v1/results URL the way the handler does.
func queryOf(path string) store.Query {
	u, err := url.Parse(path)
	if err != nil {
		return store.Query{}
	}
	v := u.Query()
	q := store.Query{Kind: v.Get("kind"), Family: v.Get("family")}
	fmt.Sscan(v.Get("limit"), &q.Limit)
	return q
}

// layerShares is each layer's share of request time: in-process
// handler time plus, per request, the HTTP overhead measured live
// (httpUS, from memo-answered POSTs; larger bodies cost more, so the
// http row is a floor). Within the handler, the ladder spans count by
// layer and server self time is the rest.
func layerShares(spans []span, done []replayed, httpUS float64) []metric {
	var handler, children time.Duration
	for _, d := range done {
		handler += d.handler
		children += d.children
	}
	httpTime := time.Duration(max(httpUS, 0) * float64(len(done)) * float64(time.Microsecond))
	total := handler + httpTime
	byLayer := map[string]time.Duration{}
	for _, s := range spans {
		switch s.Name {
		case spanRequest, spanHandler:
		case spanAppend, spanGet, spanQuery:
			byLayer["store"] += s.dur()
		default:
			byLayer[s.Name] += s.dur()
		}
	}
	byLayer["server.self"] = handler - children
	byLayer["http"] = httpTime
	out := []metric{}
	for _, name := range []string{"http", "server.self", spanDecode, spanCanonical, spanMachine, spanEngine, spanExecute, spanEncode, "store", spanForward, spanTables} {
		share := 0.0
		if total > 0 {
			share = 100 * float64(byLayer[name]) / float64(total)
		}
		out = append(out, metric{name: name, value: share, unit: "%"})
	}
	return out
}

// p50 is the nearest-rank median of xs.
func p50(xs []float64) float64 { return stats.NearestRank(stats.Sorted(xs), 0.5) }

// layerMetrics derives the per-layer metrics from the replay.
func (x *replayer) layerMetrics(spans []span) []metric {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	byName := map[string][]float64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], us(s.dur()))
	}
	handler := map[string][]float64{}
	var self []float64
	for _, d := range x.done {
		class := d.class
		per := us(d.handler)
		if class == classSweep {
			class, per = "sweep_point", per/float64(d.points)
		}
		handler[class] = append(handler[class], per)
		self = append(self, us(d.handler-d.children))
	}
	ms := func(xs []float64) float64 { return p50(xs) / 1e3 }
	out := []metric{
		{"server.handler_us_p50.measure", p50(handler[classMeasure]), "us"},
		{"server.handler_us_p50.sweep_point", p50(handler["sweep_point"]), "us"},
		{"server.handler_us_p50.result_key", p50(handler[classResultKey]), "us"},
		{"server.handler_us_p50.result_query", p50(handler[classResultQuery]), "us"},
		{"server.self_us_p50", p50(self), "us"},
		{"server.decode_us_p50", p50(byName[spanDecode]), "us"},
		{"server.encode_us_p50", p50(byName[spanEncode]), "us"},
		{"runspec.canonical_us_p50", p50(byName[spanCanonical]), "us"},
	}
	for _, k := range []runspec.Kind{runspec.KindBeta, runspec.KindOpenLoop, runspec.KindSteadyBeta, runspec.KindEmulate} {
		out = append(out, metric{"runspec.execute_ms_p50." + string(k), p50(x.exec[k]), "ms"})
	}
	out = append(out,
		metric{"store.append_us_p50", p50(byName[spanAppend]), "us"},
		metric{"store.get_us_p50", p50(byName[spanGet]), "us"},
		metric{"store.query_us_p50", p50(byName[spanQuery]), "us"},
		metric{"cluster.forward_ms_p50", ms(byName[spanForward]), "ms"},
	)
	return out
}

// buildTimes times machine and engine builds on fresh caches: three
// rounds over every cacheable machine shape the warm-up names.
func buildTimes(warm []request) (machineMS, engineMS float64) {
	var ms, es []float64
	for round := 0; round < 3; round++ {
		for _, r := range warm {
			var s runspec.Spec
			if json.Unmarshal(r.body, &s) != nil || s.Machine == nil {
				continue
			}
			c := runspec.NewArtifactCache(0, 0)
			t0 := time.Now()
			c.Machine(*s.Machine)
			t1 := time.Now()
			c.Engine(*s.Machine, routing.Greedy)
			ms = append(ms, float64(t1.Sub(t0).Nanoseconds())/1e6)
			es = append(es, float64(time.Since(t1).Nanoseconds())/1e6)
		}
	}
	return p50(ms), p50(es)
}

// stepMachines are measure-cold's machines, stepped under a standing
// load for routing.step_us_p50.<name>.
var stepMachines = []struct {
	name string
	ms   runspec.MachineSpec
}{
	{"WeakHypercube-1024", runspec.MachineSpec{Family: "WeakHypercube", Size: 1024}},
	{"Mesh-1024", runspec.MachineSpec{Family: "Mesh", Dim: 2, Size: 1024}},
	{"Mesh-64", runspec.MachineSpec{Family: "Mesh", Dim: 2, Size: 64}},
	{"DeBruijn-256", runspec.MachineSpec{Family: "DeBruijn", Size: 256}},
}

// stepTimes times Sim.Step on each step machine with one message per
// processor kept in flight (topped up before every tick).
func stepTimes() ([]metric, error) {
	var out []metric
	for _, sm := range stepMachines {
		m, err := runspec.BuildMachine(sm.ms)
		if err != nil {
			return nil, err
		}
		sim := routing.NewEngine(m, routing.Greedy).NewSim(rand.New(rand.NewSource(1)))
		dist := traffic.NewSymmetric(m.N())
		var us []float64
		for t := 0; t < 160; t++ {
			if k := m.N() - sim.InFlight(); k > 0 {
				sim.InjectSampled(dist, k)
			}
			t0 := time.Now()
			sim.Step()
			if t >= 32 {
				us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
		sim.Close()
		out = append(out, metric{"routing.step_us_p50." + sm.name, p50(us), "us"})
	}
	return out, nil
}

// storeFootprint reopens a store directory (median of three opens) and
// measures its bytes per record.
func storeFootprint(dir string) (openS, bytesPerRecord float64, err error) {
	var opens []float64
	records := 0
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		st, err := store.Open(dir)
		if err != nil {
			return 0, 0, err
		}
		opens = append(opens, time.Since(t0).Seconds())
		records = st.Len()
		st.Close()
	}
	var size int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			size += info.Size()
		}
	}
	if records > 0 {
		bytesPerRecord = float64(size) / float64(records)
	}
	return stats.Median(opens), bytesPerRecord, nil
}

// newInProcessNode builds a server configured like the live node the
// workload talks to: netemud's defaults, a store, and on cluster-mix a
// dispatcher over the live workers whose forwards are traced.
func newInProcessNode(tr *tracer, st *store.Store, workers []string) (*server.Server, func()) {
	cfg := server.Config{
		MaxConcurrent:  runtime.GOMAXPROCS(0),
		QueueDepth:     16,
		DefaultTimeout: 60 * time.Second,
		Shards:         1,
		Store:          st,
	}
	stop := func() {}
	if workers != nil {
		d := cluster.NewDispatcher(workers, cluster.Options{
			ProbeInterval: healthInterval,
			Validate:      server.ValidateWorkerBody,
			Transport:     &forwardSpans{base: &http.Transport{}, tr: tr},
		})
		d.Start()
		cfg.Dispatch, cfg.Role, stop = d, "coordinator", d.Close
	}
	return server.New(cfg), stop
}

// writeTrace saves the spans and shares of one traced run.
func writeTrace(path, workload string, seed int64, spans []span, shares []metric) error {
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SharePct map[string]float64 `json:"share_pct"`
		Counts   map[string]int     `json:"counts"`
		Spans    []span             `json:"spans"`
	}{workload, seed, map[string]float64{}, map[string]int{}, spans}
	for _, m := range shares {
		doc.SharePct[m.name] = m.value
	}
	for _, s := range spans {
		doc.Counts[s.Name]++
		if s.Answered != "" {
			doc.Counts["answered_by."+s.Answered]++
		}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
