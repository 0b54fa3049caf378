// Command netemud is the long-running measurement service: every
// measurement and emulation the CLIs expose, behind an HTTP API keyed
// by the unified serializable RunSpec.
//
// Endpoints:
//
//	POST /v1/measure        β / steady-β / open-loop / fault-curve / λ
//	POST /v1/sweep          batch measurement: one base spec + knob points,
//	                        streamed point-by-point over a shared artifact
//	                        cache; byte-identical to the equivalent sequence
//	                        of /v1/measure responses
//	POST /v1/emulate        direct / circuit / pipelined / mapped / degraded
//	GET  /v1/tables/{1..4}  the paper's reproduced tables (plain text)
//	GET  /v1/results        query the persistent result store (-store):
//	                        filter by kind / family / since, cursor pagination
//	GET  /v1/results/{key}  one stored result body, byte-identical to the
//	                        POST response for the same spec
//	GET  /v1/crossover      crossover surface assembled from every stored
//	                        emulation of a guest/host family pair
//	GET  /v1/meta           discovery: role, endpoints, error codes, the
//	                        canonical-spec and result-key prefixes
//	GET  /v1/sweeps/stream  SSE feed of scheduled sweep progress (-sweeps);
//	                        late subscribers replay recent events
//	GET  /healthz           liveness (503 "draining" once a drain begins)
//	GET  /metrics           request/answer-path/cluster counters + latency
//	POST /drainz            begin a graceful drain: healthz flips to 503 so
//	                        coordinators probe this worker out of rotation,
//	                        in-flight work finishes, new work spills to ring
//	                        successors
//
// The POST endpoints take a JSON runspec.Spec and return the
// json.MarshalIndent of its RunResult — byte-identical to what
// `betameter -json` or `emusim -json` print for the same spec, which is
// what the CI parity check diffs. Identical concurrent requests
// coalesce into one simulation; distinct requests pass a bounded
// admission queue (429 when full, 503 while draining).
//
// Every error response carries the unified envelope
// {"error":{"code":"…","message":"…"}} with codes bad_spec, queue_full,
// draining, deadline, not_found, and internal; GET /v1/meta lists the
// full taxonomy with HTTP statuses and which codes are retryable.
//
// With -store DIR every 200 measurement and emulation response is also
// appended to a crash-safe result store, queryable through the GET
// /v1/results endpoints and stable across restarts: re-querying a key
// returns the stored body byte-for-byte, and re-POSTing a stored spec
// is answered from the store without simulating. With -sweeps FILE a
// background scheduler replays the configured sweep jobs at low
// priority (never displacing interactive requests), lands each point in
// the store, and streams progress on /v1/sweeps/stream.
//
// Distributed mode: `-coordinator -workers host1:port,host2:port` fans
// computations out to a pool of plain netemud processes (run them with
// `-worker`, which is a single-node server plus a log marker), routing
// each request by its canonical key on a consistent-hash ring so every
// worker's memo and artifact cache stay hot for its slice of the key
// space; a coordinator with -store answers stored specs itself. Dead
// workers are probed out of rotation and requests fail over to the next
// ring successor; with no worker reachable the coordinator computes
// locally. Responses are byte-identical to a single-node run either
// way.
//
// Usage:
//
//	netemud [-addr :8080] [-concurrency N] [-queue 16]
//	        [-request-timeout 60s] [-shards 1]
//	        [-store DIR] [-sweeps FILE]
//	        [-read-header-timeout 10s] [-idle-timeout 2m] [-max-header-bytes 65536]
//	        [-coordinator -workers host:port,... [-health-interval 2s] [-forward-timeout 90s]]
//	        [-worker]
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/schedule"
	"repro/internal/server"
	"repro/internal/server/cluster"
	"repro/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("netemud: ")
	addr := flag.String("addr", ":8080", "listen address")
	concurrency := flag.Int("concurrency", 0, "max simultaneous simulations (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 16, "max computations waiting for a slot before 429s")
	timeout := flag.Duration("request-timeout", 60*time.Second, "default per-request deadline (clients lower it via X-Timeout-Ms)")
	shards := flag.Int("shards", 1, "simulator shards per computation for specs that leave shards unset (0 = one per CPU); results are identical at any value")
	storeDir := flag.String("store", "", "append every 200 response to a crash-safe result store in this directory, answer stored specs from it across restarts, and enable the GET /v1/results endpoints")
	sweepsFile := flag.String("sweeps", "", "JSON sweep-job file; a background scheduler replays each job at low priority and streams progress on /v1/sweeps/stream")
	drain := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight computations")

	// Listener hardening. Handler-level deadlines stay with the
	// admission queue; these guard the connection itself, where a
	// slow-loris client could otherwise pin a conn forever — fatal once
	// workers accept coordinator-forwarded traffic.
	readHeader := flag.Duration("read-header-timeout", 10*time.Second, "max time to read a request's headers (0 = unlimited)")
	idle := flag.Duration("idle-timeout", 2*time.Minute, "max keep-alive idle time per connection (0 = unlimited)")
	maxHeader := flag.Int("max-header-bytes", 1<<16, "max request header size in bytes")

	// Cluster roles.
	coordinator := flag.Bool("coordinator", false, "fan computations out to the -workers pool by canonical cache key")
	workers := flag.String("workers", "", "comma-separated worker host:port list (implies -coordinator)")
	worker := flag.Bool("worker", false, "serve as a cluster worker (a plain single-node server; marker for logs and ops)")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "coordinator /healthz probe period")
	forwardTimeout := flag.Duration("forward-timeout", 90*time.Second, "coordinator per-attempt forward deadline; keep above the workers' -request-timeout")
	flag.Parse()

	if *workers != "" {
		*coordinator = true
	}
	if *coordinator && *worker {
		log.Fatal("-coordinator and -worker are mutually exclusive roles")
	}

	cfg := server.Config{
		MaxConcurrent:  *concurrency,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		Shards:         *shards,
	}
	if cfg.MaxConcurrent == 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.Shards == 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	switch {
	case *coordinator:
		cfg.Role = "coordinator"
	case *worker:
		cfg.Role = "worker"
	default:
		cfg.Role = "single"
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		cfg.Store = st
	}
	var sweepJobs []schedule.SweepJob
	if *sweepsFile != "" {
		jobs, err := schedule.LoadJobs(*sweepsFile)
		if err != nil {
			log.Fatal(err)
		}
		sweepJobs = jobs
		cfg.SweepHub = schedule.NewHub()
		if *storeDir == "" {
			log.Print("-sweeps without -store: scheduled points warm caches but are not queryable afterwards")
		}
	}

	var dispatch *cluster.Dispatcher
	if *coordinator {
		pool := splitWorkers(*workers)
		if len(pool) == 0 {
			log.Print("coordinator with an empty -workers pool: every computation runs locally")
		}
		dispatch = cluster.NewDispatcher(pool, cluster.Options{
			ProbeInterval:  *healthInterval,
			ForwardTimeout: *forwardTimeout,
			Validate:       server.ValidateWorkerBody,
		})
		dispatch.Start()
		defer dispatch.Close()
		cfg.Dispatch = dispatch
	}

	srv := server.New(cfg)
	var sweeper *schedule.Sweeper
	if len(sweepJobs) > 0 {
		sweeper = schedule.NewSweeper(sweepJobs, srv.RunScheduled, cfg.SweepHub)
		sweeper.Start()
		log.Printf("scheduler: %d sweep job(s) from %s", len(sweepJobs), *sweepsFile)
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: *readHeader,
		IdleTimeout:       *idle,
		MaxHeaderBytes:    *maxHeader,
	}

	errc := make(chan error, 1)
	go func() {
		role := "single-node"
		switch {
		case *coordinator:
			role = "coordinator over " + *workers
		case *worker:
			role = "worker"
		}
		log.Printf("listening on %s as %s (concurrency=%d, queue=%d, shards=%d)",
			*addr, role, cfg.MaxConcurrent, cfg.QueueDepth, cfg.Shards)
		errc <- hs.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
		return
	case sig := <-stop:
		log.Printf("got %v, draining (up to %v)", sig, *drain)
	}

	// Graceful drain: shed new work with 503, let admitted computations
	// finish, then stop listening. A second deadline guards the whole
	// sequence; whatever is still running after it is abandoned. The
	// sweeper stops first so no scheduled point races the drain, and
	// closing the hub ends any /v1/sweeps/stream subscribers so they
	// don't hold Shutdown open.
	if sweeper != nil {
		sweeper.Stop()
		cfg.SweepHub.Close()
	}
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Wait(ctx); err != nil {
		log.Printf("abandoning in-flight computations: %v", err)
	}
	srv.Close()
}

// splitWorkers parses the -workers list, dropping empty elements so
// trailing commas are harmless.
func splitWorkers(list string) []string {
	var out []string
	for _, w := range strings.Split(list, ",") {
		if w = strings.TrimSpace(w); w != "" {
			out = append(out, w)
		}
	}
	return out
}
