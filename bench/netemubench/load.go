package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/bench/stats"
)

// conns is how many connections the load uses: one per CPU of the
// two-CPU box the benchmark was sized on.
const conns = 2

func newLoadClient() *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

func send(c *http.Client, base string, r request) (int, []byte, error) {
	req, err := http.NewRequest(r.method, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// sendAll sends reqs over the connection pool, conns at a time, and
// hands every answer to fn (which must be safe for concurrent use).
// It stops at the first transport error or non-200 answer.
func sendAll(c *http.Client, base string, reqs []request, fn func(k int, body []byte) error) error {
	var next atomic.Int64
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				mu.Lock()
				stop := first != nil
				mu.Unlock()
				if i >= len(reqs) || stop {
					return
				}
				st, body, err := send(c, base, reqs[i])
				if err == nil && st != http.StatusOK {
					err = fmt.Errorf("%s %s: status %d: %.200s", reqs[i].method, reqs[i].path, st, body)
				}
				if err == nil {
					err = fn(i, body)
				}
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// window is what one measured window observed.
type window struct {
	attempted int
	failed    int // non-200, transport errors, and failed checks
	done      []completion
	segs      []segment
	lagMS     []float64 // open loop only: how late the generator released each request
	rssMB     float64
	rssAt     int     // completed requests when rssMB was read
	exhausted bool    // a closed loop ran out of generated requests
	cpuS      float64 // this process's CPU time over the load segments
	serverCPU float64 // the deployment's CPU time over the load segments
}

// segment is one stretch of load between two calibration bursts.
type segment struct {
	wall    time.Duration
	results int     // result bodies in its 200 answers
	speed   float64 // the machine's speed over it; 1 without calibration
	stealS  float64 // CPU time the hypervisor gave other guests, over every CPU
	lagP99  float64 // open loop only: the generator's lateness, p99, in ms
}

// completion is one answered request.
type completion struct {
	seg     int // the segment it was sent in
	latMS   float64
	results int // result bodies in a 200 answer (a sweep point is one); 0 if it failed
}

// tally is one connection's share of a window, merged at the end so
// the hot path takes no lock.
type tally struct {
	attempted, failed int
	done              []completion
}

func (t *tally) add(seg int, r request, ok bool, lat time.Duration) {
	t.attempted++
	c := completion{seg: seg, latMS: float64(lat.Nanoseconds()) / 1e6}
	if ok {
		c.results = r.points
	} else {
		t.failed++
	}
	t.done = append(t.done, c)
}

// latencies returns every completion's latency in ms, scaled to the
// reference speed when scaled is set.
func (w *window) latencies(scaled bool) []float64 {
	out := make([]float64, len(w.done))
	for i, c := range w.done {
		out[i] = c.latMS
		if scaled {
			out[i] *= w.segs[c.seg].speed
		}
	}
	return out
}

// results counts the result bodies in the window's 200 answers.
func (w *window) results() int {
	n := 0
	for _, s := range w.segs {
		n += s.results
	}
	return n
}

// wall is the load segments' total wall time, and refSeconds the same
// time at the reference speed: how long the reference machine would
// have taken for the same work.
func (w *window) wall() time.Duration {
	var t time.Duration
	for _, s := range w.segs {
		t += s.wall
	}
	return t
}

func (w *window) refSeconds() float64 {
	t := 0.0
	for _, s := range w.segs {
		t += s.wall.Seconds() * s.speed
	}
	return t
}

// pacing is how a window is cut: segs load segments of seg each, with a
// calibration burst of burst before the first and after every one. A
// nil cal runs the segments back to back without calibrating.
type pacing struct {
	segs  int
	seg   time.Duration
	burst time.Duration
	cal   *calibrator
}

// drive runs the measured window. Each segment is a closed loop on
// conns connections for seg, or, for a workload with a rate, an open
// loop that releases the segment's requests at segment start + j/rate.
// An open-loop request is timed from its release, so the time it waits
// for a free connection behind a slow answer counts; how late the
// generator released it (the Go runtime's timers wake up to about a
// millisecond late, more when the machine stalls the generator) is
// reported apart, as its lag, rather than charged to the server. A
// segment ends once its last answer is in,
// so the deployment is idle during the calibration burst that follows.
// Request indexes run on across segments.
func drive(w *workload, d deployment, p pacing, chk *checker) (*window, error) {
	c := newLoadClient()
	defer c.CloseIdleConnections()
	base := d.url()
	var (
		completed atomic.Int64
		rssOnce   sync.Once
		rss       float64
		rssErr    error
	)
	readRSS := func() { rssOnce.Do(func() { rss, rssErr = d.rssMB() }) }
	out := &window{}
	tallies := make([]tally, conns)
	finish := func(t *tally, seg, i int, r request, st int, body []byte, err error, lat time.Duration) {
		ok := err == nil && chk.observe(i, r, st, body)
		t.add(seg, r, ok, lat)
		if n := completed.Add(1); w.rssAt > 0 && int(n) == w.rssAt {
			out.rssAt = int(n)
			readRSS()
		}
	}

	var exhausted atomic.Bool
	prev := -1
	if p.cal != nil {
		var err error
		if prev, err = p.cal.burst(p.burst); err != nil {
			return nil, err
		}
	}
	next := 0 // the next request index
	for k := 0; k < p.segs; k++ {
		srv0, err := d.cpuS()
		if err != nil {
			return nil, fmt.Errorf("reading server CPU time: %w", err)
		}
		cpu0, steal0 := cpuSeconds(), stealSeconds()
		lag0 := len(out.lagMS)
		start := time.Now()
		var wg sync.WaitGroup
		var sent atomic.Int64 // requests this segment sent
		if w.rate > 0 {
			first, n := next, int(w.rate*p.seg.Seconds())
			due := func(i int) time.Time {
				return start.Add(time.Duration(float64(i-first) / w.rate * float64(time.Second)))
			}
			queue := make(chan int, n) // sized to the number of sends: the generator never blocks
			released := make([]time.Time, n)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(queue)
				for i := first; i < first+n; i++ {
					if _, ok := w.next(i); !ok {
						return
					}
					at := due(i)
					if wait := time.Until(at); wait > 0 {
						time.Sleep(wait)
					}
					released[i-first] = time.Now()
					out.lagMS = append(out.lagMS, float64(released[i-first].Sub(at).Nanoseconds())/1e6)
					queue <- i
				}
			}()
			for j := 0; j < conns; j++ {
				wg.Add(1)
				go func(t *tally) {
					defer wg.Done()
					for i := range queue {
						r, _ := w.next(i)
						st, body, err := send(c, base, r)
						finish(t, k, i, r, st, body, err, time.Since(released[i-first]))
					}
				}(&tallies[j])
			}
			sent.Store(int64(n))
		} else {
			deadline := start.Add(p.seg)
			for j := 0; j < conns; j++ {
				wg.Add(1)
				go func(t *tally) {
					defer wg.Done()
					for time.Now().Before(deadline) {
						i := next + int(sent.Add(1)-1)
						r, ok := w.next(i)
						if !ok {
							exhausted.Store(true)
							return
						}
						t0 := time.Now()
						st, body, err := send(c, base, r)
						finish(t, k, i, r, st, body, err, time.Since(t0))
					}
				}(&tallies[j])
			}
		}
		wg.Wait()
		next += int(sent.Load())
		seg := segment{wall: time.Since(start), speed: 1, stealS: stealSeconds() - steal0}
		if w.rate > 0 {
			seg.lagP99 = stats.NearestRank(stats.Sorted(out.lagMS[lag0:]), 0.99)
		}
		out.cpuS += cpuSeconds() - cpu0
		srv1, err := d.cpuS()
		if err != nil {
			return nil, fmt.Errorf("reading server CPU time: %w", err)
		}
		out.serverCPU += srv1 - srv0
		if p.cal != nil {
			b, err := p.cal.burst(p.burst)
			if err != nil {
				return nil, err
			}
			seg.speed = p.cal.speed(prev, b)
			prev = b
		}
		out.segs = append(out.segs, seg)
	}
	out.exhausted = exhausted.Load()
	if out.rssAt == 0 {
		out.rssAt = int(completed.Load())
		readRSS()
	}
	if rssErr != nil {
		return nil, fmt.Errorf("reading server RSS: %w", rssErr)
	}
	out.rssMB = rss
	for _, t := range tallies {
		out.attempted += t.attempted
		out.failed += t.failed
		out.done = append(out.done, t.done...)
		for _, c := range t.done {
			out.segs[c.seg].results += c.results
		}
	}
	return out, nil
}

// stealSeconds is the machine's steal time so far, summed over its
// CPUs, from /proc/stat; 0 where it cannot be read.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return float64(v) / clockTicks
}

// cpuSeconds is this process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
