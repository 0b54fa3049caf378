package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runspec"
	"repro/internal/server/cluster"
	"repro/internal/store"
)

// answerNode is a node with a result store under dir, optionally
// fronting a one-worker pool whose worker holds every POST until open
// is called.
type answerNode struct {
	srv   *Server
	url   string
	dir   string
	gate  chan struct{}
	once  sync.Once
	posts atomic.Int64 // POSTs the worker has received
}

func newAnswerNode(t *testing.T, pool bool, dir string) *answerNode {
	t.Helper()
	n := &answerNode{dir: dir, gate: make(chan struct{})}
	var cfg Config
	if pool {
		worker := New(Config{})
		ws := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				n.posts.Add(1)
				<-n.gate
			}
			worker.Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(ws.Close)
		d := cluster.NewDispatcher([]string{strings.TrimPrefix(ws.URL, "http://")}, fastClusterOpts())
		t.Cleanup(d.Close)
		cfg.Dispatch = d
	}
	n.srv, _, n.url = newStoreServer(t, dir, cfg)
	t.Cleanup(n.open) // first, so no held forward outlives the test
	return n
}

func (n *answerNode) open() { n.once.Do(func() { close(n.gate) }) }

// answerCounts is every counter that says how an answer was made.
type answerCounts struct {
	memo, coalesced, store, forwarded, executed, superseded int64
}

func (n *answerNode) counts() answerCounts {
	m := n.srv.Metrics()
	c := answerCounts{memo: m.MemoHits, coalesced: m.CoalescedHits, store: m.StoreHits, executed: m.Executions, superseded: m.Store.Superseded}
	if m.Cluster != nil {
		c.forwarded = m.Cluster.Forwarded
	}
	return c
}

// TestAnswerPaths makes one answer each way resolve can make it and
// checks the bytes against a plain single node and the counters of the
// node that answered last.
func TestAnswerPaths(t *testing.T) {
	_, ref := newTestServer(t, Config{})
	okSpec := `{"kind":"beta","machine":{"family":"Mesh","dim":2,"size":16},"load_factors":[2],"trials":1,"seed":21}`
	// Passes Validate but fails once the machine is built: locality
	// traffic on a machine with switches.
	badSpec := `{"kind":"beta","machine":{"family":"GlobalBus","size":16},"traffic":"locality:0.5","load_factors":[2],"trials":1,"seed":1}`

	once := func(t *testing.T, n *answerNode, spec string) (int, []byte) {
		n.open()
		return post(t, n.url+"/v1/measure", spec, nil)
	}
	twice := func(t *testing.T, n *answerNode, spec string) (int, []byte) {
		once(t, n, spec)
		return once(t, n, spec)
	}
	afterRestart := func(t *testing.T, n *answerNode, spec string) (int, []byte) {
		once(t, n, spec)
		fresh := newAnswerNode(t, false, n.dir)
		n.srv, n.url = fresh.srv, fresh.url
		return once(t, n, spec)
	}
	// overlapping sends the spec twice while the worker holds the first
	// forward, so the second joins the first's flight.
	overlapping := func(t *testing.T, n *answerNode, spec string) (int, []byte) {
		first := make(chan struct{})
		go func() {
			defer close(first)
			if resp, err := http.Post(n.url+"/v1/measure", "application/json", strings.NewReader(spec)); err == nil {
				resp.Body.Close()
			}
		}()
		waitFor(t, func() bool { return n.posts.Load() == 1 })
		go func() {
			for end := time.Now().Add(10 * time.Second); n.counts().coalesced == 0 && time.Now().Before(end); {
				time.Sleep(time.Millisecond)
			}
			n.open()
		}()
		code, body := post(t, n.url+"/v1/measure", spec, nil)
		<-first
		return code, body
	}
	// stale plants the spec's true body under another measurement
	// version before the node boots over the store.
	stale := func(t *testing.T, dir, spec string) {
		var s runspec.Spec
		if err := json.Unmarshal([]byte(spec), &s); err != nil {
			t.Fatal(err)
		}
		_, body := post(t, ref.URL+"/v1/measure", spec, nil)
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		meta := storeMeta(s, s.Canonical())
		meta.Version = "m-stale"
		if _, err := st.Append(meta, body); err != nil {
			t.Fatal(err)
		}
	}

	tests := []struct {
		name  string
		pool  bool                                 // the node fronts a one-worker pool
		plant func(t *testing.T, dir, spec string) // prepares the store before the node boots
		send  func(*testing.T, *answerNode, string) (int, []byte)
		spec  string
		want  answerCounts
	}{
		{name: "local execution", send: once, spec: okSpec, want: answerCounts{executed: 1}},
		{name: "memo hit", send: twice, spec: okSpec, want: answerCounts{executed: 1, memo: 1}},
		{name: "coalesced join", pool: true, send: overlapping, spec: okSpec, want: answerCounts{coalesced: 1, forwarded: 1}},
		{name: "store hit after restart", send: afterRestart, spec: okSpec, want: answerCounts{store: 1}},
		{name: "stale version re-executed and superseded", plant: stale, send: once, spec: okSpec, want: answerCounts{executed: 1, superseded: 1}},
		{name: "forward", pool: true, send: once, spec: okSpec, want: answerCounts{forwarded: 1}},
		{name: "400 not kept", send: twice, spec: badSpec, want: answerCounts{executed: 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			wantCode, wantBody := post(t, ref.URL+"/v1/measure", tt.spec, nil)
			dir := t.TempDir()
			if tt.plant != nil {
				tt.plant(t, dir, tt.spec)
			}
			n := newAnswerNode(t, tt.pool, dir)
			code, body := tt.send(t, n, tt.spec)
			if code != wantCode || !bytes.Equal(body, wantBody) {
				t.Fatalf("status %d, want %d; body differs from a single node's:\ngot  %s\nwant %s", code, wantCode, body, wantBody)
			}
			if got := n.counts(); got != tt.want {
				t.Fatalf("counters %+v, want %+v", got, tt.want)
			}
		})
	}
}

// TestFlightTableKeepsFirstAnswers pins the retention rule: the first
// memoCapEntries finished 200s are kept for good, later ones and every
// failure are dropped at finish.
func TestFlightTableKeepsFirstAnswers(t *testing.T) {
	tab := flights{m: make(map[string]*flight)}
	answer := func(key string, status int) {
		f, leader, _ := tab.join(key)
		if !leader {
			t.Fatalf("%s: joined a flight that should not exist", key)
		}
		tab.finish(key, f, reply{status: status})
	}
	answer("failed", http.StatusTooManyRequests)
	for i := 0; i <= memoCapEntries; i++ {
		answer(fmt.Sprint(i), http.StatusOK)
	}
	answer("failed", http.StatusTooManyRequests)
	if _, _, hit := tab.join("0"); !hit {
		t.Fatal("the first answer was not kept")
	}
	last := fmt.Sprint(memoCapEntries)
	if _, leader, _ := tab.join(last); !leader {
		t.Fatalf("answer %s past the cap was kept", last)
	}
	if len(tab.m) != memoCapEntries+1 { // the kept ones plus last's new flight
		t.Fatalf("table holds %d flights, want %d", len(tab.m), memoCapEntries+1)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 10s")
		}
		time.Sleep(time.Millisecond)
	}
}
