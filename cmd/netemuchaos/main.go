// Command netemuchaos is the deterministic chaos soak for the netemud
// serving layer. It boots — all in one process — a fault-free reference
// server, a pool of workers, and a coordinator whose forward path runs
// through the chaos transport (internal/chaos), then replays a seeded
// netemuload plan against both and asserts the robustness contract:
//
//   - every coordinator response is byte-identical to the fault-free
//     single-node reference, status and body, with at most -error-budget
//     divergences (default 0: chaos must be fully masked by failover
//     and local fallback);
//   - the coordinator's /metrics conserve: total requests equal the sum
//     over endpoints of the per-status counts, and every 200 from the
//     spec endpoints is served exactly one way (memo, coalesced, store,
//     forwarded, or local fallback);
//   - zero store poisoning: a fresh single-node server over the
//     coordinator's result store re-serves every distinct 200 spec
//     byte-identically without running a single simulation;
//   - with -repro (default), the whole soak runs twice from the same
//     seed against fresh pools and the response-stream digests must
//     match bit for bit. (Fault decisions are a pure function of
//     (seed, forward index); the injected-fault trace is logged but not
//     folded into the digest, because wall-clock health probes may
//     revive a worker at slightly different forward indices between
//     runs — the responses never differ, which is the contract.)
//
// Exit status 0 means every assertion held. Usage:
//
//	netemuchaos [-seed 1] [-requests 100] [-workers 2]
//	            [-chaos "latency:20ms@p0.08,drop@p0.05,crash:w2@t30s,heal@t60s"]
//	            [-error-budget 0] [-forward-timeout 2s] [-probe-interval 250ms]
//	            [-repro] [-v]
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/loadplan"
	"repro/internal/server"
	"repro/internal/server/cluster"
	"repro/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("netemuchaos: ")
	seed := flag.Int64("seed", 1, "seed for both the request plan and the chaos coin flips")
	requests := flag.Int("requests", 100, "how many plan requests to replay")
	workers := flag.Int("workers", 2, "worker pool size")
	schedule := flag.String("chaos", "latency:20ms@p0.08,drop@p0.05,crash:w2@t30s,heal@t60s",
		"chaos schedule (see internal/chaos grammar)")
	errorBudget := flag.Int("error-budget", 0, "how many responses may diverge from the reference before failing")
	forwardTimeout := flag.Duration("forward-timeout", 2*time.Second, "coordinator per-attempt forward deadline (bounds freeze faults)")
	probeInterval := flag.Duration("probe-interval", 250*time.Millisecond, "coordinator health-probe period (what revives crashed-then-healed workers)")
	repro := flag.Bool("repro", true, "run the soak twice and require identical response digests")
	verbose := flag.Bool("v", false, "log every injected fault and divergence")
	flag.Parse()

	plan, err := chaos.ParseChaosSpec(*schedule)
	if err != nil {
		log.Fatal(err)
	}
	if *requests < 1 || *workers < 1 {
		log.Fatal("-requests and -workers must be positive")
	}
	if mw := plan.MaxWorker(); mw > *workers {
		log.Fatalf("schedule targets w%d but the pool has only %d workers", mw, *workers)
	}
	load := loadplan.Build(*seed, *requests)

	// Fault-free reference: one single-node server, replayed sequentially.
	ref := bootNode(server.Config{Shards: 1})
	want := replayAll(load, ref.base)
	ref.stop()
	log.Printf("reference: %d responses (%d OK)", len(want), countOK(want))

	run1 := runSoak(*seed, plan, load, *workers, *forwardTimeout, *probeInterval, *verbose)
	failures := checkRun(run1, want, *errorBudget, *verbose)

	if *repro {
		run2 := runSoak(*seed, plan, load, *workers, *forwardTimeout, *probeInterval, false)
		if run1.digest != run2.digest {
			failures++
			log.Printf("FAIL: response digests diverged across identical seeds: %s vs %s", run1.digest, run2.digest)
		} else {
			log.Printf("repro: second run reproduced response digest %s", run1.digest)
		}
		checkRun(run2, want, *errorBudget, false)
	}

	if failures > 0 {
		log.Fatalf("%d assertion(s) failed (seed %d, chaos %q)", failures, *seed, plan)
	}
	log.Printf("OK: seed %d, %d requests, %d workers, chaos %q, %d faults injected, digest %s",
		*seed, *requests, *workers, plan, run1.faults, run1.digest)
}

// node is one in-process netemud instance on a real loopback listener.
type node struct {
	srv  *server.Server
	hs   *http.Server
	addr string // host:port
	base string // http://host:port
}

func bootNode(cfg server.Config) *node {
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	n := &node{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		addr: ln.Addr().String(),
	}
	n.base = "http://" + n.addr
	go n.hs.Serve(ln)
	return n
}

func (n *node) stop() {
	n.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n.hs.Shutdown(ctx)
	if err := n.srv.Wait(ctx); err != nil {
		log.Printf("draining %s: %v", n.addr, err)
	}
	n.srv.Close()
}

// record is one replayed response.
type record struct {
	status int
	body   []byte
}

func countOK(recs []record) int {
	n := 0
	for _, r := range recs {
		if r.status == http.StatusOK {
			n++
		}
	}
	return n
}

// replayAll replays the plan sequentially — request i is the i-th HTTP
// request the target sees, which is what pins the chaos virtual
// timeline — and returns every response.
func replayAll(load []loadplan.Request, base string) []record {
	client := &http.Client{Timeout: 5 * time.Minute}
	recs := make([]record, len(load))
	for i, req := range load {
		hr, err := http.NewRequest(req.Method, base+req.Path, bytes.NewReader(req.Body))
		if err != nil {
			log.Fatal(err)
		}
		if req.Body != nil {
			hr.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(hr)
		if err != nil {
			recs[i] = record{status: 0, body: []byte(err.Error())}
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			recs[i] = record{status: 0, body: []byte(err.Error())}
			continue
		}
		recs[i] = record{status: resp.StatusCode, body: body}
	}
	return recs
}

// soakResult is one chaos run over a fresh pool.
type soakResult struct {
	recs     []record
	digest   string // sha256 over the (index, status, body) stream
	faults   int
	trace    []string
	storeDir string
	load     []loadplan.Request
	// conservation inputs, snapshotted before teardown
	conservationErr error
}

// runSoak boots workers + a chaos-wrapped coordinator, replays the
// plan, snapshots the metrics conservation law, and tears everything
// down (leaving the coordinator's store for the poisoning check).
func runSoak(seed int64, plan chaos.Plan, load []loadplan.Request, workers int, forwardTimeout, probeInterval time.Duration, verbose bool) soakResult {
	pool := make([]*node, workers)
	addrs := make([]string, workers)
	for i := range pool {
		pool[i] = bootNode(server.Config{Shards: 1})
		addrs[i] = pool[i].addr
	}

	storeDir, err := os.MkdirTemp("", "netemuchaos-store-")
	if err != nil {
		log.Fatal(err)
	}
	st, err := store.Open(storeDir)
	if err != nil {
		log.Fatal(err)
	}

	tr := chaos.NewTransport(seed, plan, addrs)
	d := cluster.NewDispatcher(addrs, cluster.Options{
		ProbeInterval:  probeInterval,
		ForwardTimeout: forwardTimeout,
		BackoffBase:    5 * time.Millisecond,
		BackoffMax:     50 * time.Millisecond,
		Transport:      tr,
		Validate:       server.ValidateWorkerBody,
	})
	d.Start()
	coord := bootNode(server.Config{Shards: 1, Store: st, Dispatch: d})

	recs := replayAll(load, coord.base)
	conservationErr := checkConservation(coord.srv, recs)

	coord.stop()
	st.Close()
	d.Close()
	for _, w := range pool {
		w.stop()
	}

	trace := tr.Trace()
	if verbose {
		for _, line := range trace {
			log.Printf("fault: %s", line)
		}
	}

	h := sha256.New()
	var idx [8]byte
	for i, r := range recs {
		binary.BigEndian.PutUint64(idx[:], uint64(i))
		h.Write(idx[:])
		binary.BigEndian.PutUint64(idx[:], uint64(r.status))
		h.Write(idx[:])
		h.Write(r.body)
	}
	return soakResult{
		recs:            recs,
		digest:          hex.EncodeToString(h.Sum(nil))[:16],
		faults:          len(trace),
		trace:           trace,
		storeDir:        storeDir,
		load:            load,
		conservationErr: conservationErr,
	}
}

// checkConservation asserts the /metrics accounting law on the live
// coordinator: requests == Σ endpoints == Σ statuses, and every spec
// 200 was served exactly one way.
func checkConservation(s *server.Server, recs []record) error {
	m := s.Metrics()
	var endpointTotal, statusTotal, spec200 int64
	for name, ep := range m.Endpoints {
		endpointTotal += ep.Requests
		var sum int64
		for status, n := range ep.ByStatus {
			sum += n
			if status == "200" && (name == "/v1/measure" || name == "/v1/emulate") {
				spec200 += n
			}
		}
		if sum != ep.Requests {
			return fmt.Errorf("endpoint %s: by_status sums to %d, requests = %d", name, sum, ep.Requests)
		}
		statusTotal += sum
	}
	if m.Requests != int64(len(recs)) {
		return fmt.Errorf("metrics saw %d requests, replay sent %d", m.Requests, len(recs))
	}
	if endpointTotal != m.Requests || statusTotal != m.Requests {
		return fmt.Errorf("endpoint totals %d/%d do not conserve requests %d", endpointTotal, statusTotal, m.Requests)
	}
	if m.Cluster == nil {
		return fmt.Errorf("coordinator metrics carry no cluster section")
	}
	served := m.MemoHits + m.CoalescedHits + m.StoreHits + m.Cluster.Forwarded + m.Cluster.LocalFallbacks
	if served != spec200 {
		return fmt.Errorf("memo(%d)+coalesced(%d)+store(%d)+forwarded(%d)+fallbacks(%d) = %d, want %d spec 200s",
			m.MemoHits, m.CoalescedHits, m.StoreHits, m.Cluster.Forwarded, m.Cluster.LocalFallbacks, served, spec200)
	}
	return nil
}

// checkRun verifies one soak against the reference and runs the
// store-poisoning replay; returns how many assertions failed.
func checkRun(run soakResult, want []record, errorBudget int, verbose bool) int {
	failures := 0

	diverged := 0
	for i := range want {
		if run.recs[i].status != want[i].status || !bytes.Equal(run.recs[i].body, want[i].body) {
			diverged++
			if verbose {
				log.Printf("divergence at request %d: status %d vs %d", i, run.recs[i].status, want[i].status)
			}
		}
	}
	if diverged > errorBudget {
		failures++
		log.Printf("FAIL: %d responses diverged from the fault-free reference (budget %d)", diverged, errorBudget)
	} else {
		log.Printf("byte-identity: %d/%d responses identical to the reference (budget %d)", len(want)-diverged, len(want), errorBudget)
	}

	if run.conservationErr != nil {
		failures++
		log.Printf("FAIL: metrics conservation: %v", run.conservationErr)
	} else {
		log.Printf("metrics conservation held")
	}

	if err := checkStoreReplay(run, want); err != nil {
		failures++
		log.Printf("FAIL: store poisoning: %v", err)
	} else {
		log.Printf("store clean: restart re-served every distinct 200 byte-identically, zero executions")
	}
	os.RemoveAll(run.storeDir)
	return failures
}

// checkStoreReplay boots a fresh single-node server over the
// coordinator's result store and re-requests every distinct spec the
// reference answered 200 — each must come back byte-identical without
// executing a single simulation. A truncated or corrupted worker body
// that slipped into the store shows up here as a divergence (or as an
// execution after the poisoned record fails to parse).
func checkStoreReplay(run soakResult, want []record) error {
	st, err := store.Open(run.storeDir)
	if err != nil {
		return err
	}
	defer st.Close()
	n := bootNode(server.Config{Shards: 1, Store: st})
	defer n.stop()

	client := &http.Client{Timeout: 5 * time.Minute}
	seen := map[string]bool{}
	distinct := 0
	for i, req := range run.load {
		// Only POSTs are stored, only 200s land in the store, and the
		// run must itself have answered 200 for the record to exist.
		if req.Method != http.MethodPost || want[i].status != http.StatusOK || run.recs[i].status != http.StatusOK {
			continue
		}
		key := req.Path + "\x00" + string(req.Body)
		if seen[key] {
			continue
		}
		seen[key] = true
		distinct++
		hr, _ := http.NewRequest(req.Method, n.base+req.Path, bytes.NewReader(req.Body))
		hr.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(hr)
		if err != nil {
			return fmt.Errorf("replaying request %d: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want[i].body) {
			return fmt.Errorf("request %d served status %d / different bytes from the store", i, resp.StatusCode)
		}
	}
	if m := n.srv.Metrics(); m.Executions != 0 {
		return fmt.Errorf("store replay ran %d simulations; every distinct 200 should have been a store hit", m.Executions)
	}
	if distinct == 0 {
		return fmt.Errorf("no distinct 200 specs to replay; the soak exercised nothing")
	}
	return nil
}
