package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/bench/stats"
)

// The shared VM the benchmark was sized on changes speed by tens of
// percent over tens of seconds as other tenants come and go, with steal
// time near zero: what drifts is how fast each instruction runs, not how
// much CPU the benchmark gets. Ten runs of unchanged code spread their
// raw times by up to 30% in a noisy hour, wider than any useful
// regression bound. The
// calibrator measures that speed with fixed pieces of work built only
// from this file, the standard library and the kernel, which nothing in
// the program under test can change, in short bursts between the load
// segments of a window (and between set-up boots), while the deployment
// is idle. Each segment's times are then scaled to one reference speed:
// the figures read as they would on the reference machine, and a change
// to the program moves them while a change in the machine's speed
// mostly does not.
//
// A served request spends its time in two kinds of work that the
// neighbours slow by different amounts: computing in the server (the
// simulation, JSON, hashing) and crossing loopback HTTP (syscalls, the
// kernel's TCP path, the two runtimes' network pollers). So a burst
// times two units, one of each kind, and the speed is the geometric mean
// of the two speeds. On one set of ten runs of each workload, scaling
// by the compute unit alone left spreads of 9–16%, and by the mean of
// both 5–13%.

// calibUnitRef and rttUnitRef are the median times of one compute unit
// and one round-trip unit on the two-CPU box the benchmark was sized on.
// A burst whose units take these times has speed 1.
const (
	calibUnitRef = 4 * time.Millisecond
	rttUnitRef   = 900 * time.Microsecond
)

// calibrator runs calibration bursts and keeps every burst's unit times.
type calibrator struct {
	units  []*calibUnit  // one per goroutine, reused by every burst
	bursts [][]float64   // compute unit times in seconds, per burst
	rtts   [][]float64   // round-trip unit times in seconds, per burst
	echo   *http.Server  // the round-trip unit's loopback peer
	served chan struct{} // closed once echo has stopped serving
	url    string
	client *http.Client
}

// newCalibrator prepares one unit per connection the load uses, so a
// burst occupies the CPUs the load does, and starts the echo server the
// round-trip unit talks to; close stops it.
func newCalibrator() (*calibrator, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("calibration echo server: %w", err)
	}
	c := &calibrator{served: make(chan struct{}), url: "http://" + l.Addr().String() + "/", client: newLoadClient()}
	for k := 0; k < conns; k++ {
		c.units = append(c.units, newCalibUnit(uint64(k+1)))
	}
	c.echo = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var v map[string]any
		// A body that fails to decode echoes as null; the unit only times
		// the round trip.
		_ = json.NewDecoder(r.Body).Decode(&v)
		json.NewEncoder(w).Encode(v)
	})}
	go func() {
		defer close(c.served)
		c.echo.Serve(l)
	}()
	return c, nil
}

// rttUnit is the round-trip unit: rttTrips small JSON POSTs over
// loopback HTTP to the echo server, which decodes and re-encodes each.
func (c *calibrator) rttUnit() error {
	for i := 0; i < rttTrips; i++ {
		resp, err := c.client.Post(c.url, "application/json", strings.NewReader(`{"kind":"open-loop","rate":2,"ticks":32,"seed":12345}`))
		if err != nil {
			return fmt.Errorf("calibration round trip: %w", err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("calibration round trip: %w", err)
		}
	}
	return nil
}

const rttTrips = 20

// close stops the echo server and waits until it has stopped serving.
func (c *calibrator) close() {
	c.client.CloseIdleConnections()
	c.echo.Close()
	<-c.served
}

// burst runs a compute unit and a round-trip unit in turn on every
// goroutine for about d and returns the burst's index.
func (c *calibrator) burst(d time.Duration) (int, error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var times, rtts []float64
	var errs []error
	deadline := time.Now().Add(d)
	for _, u := range c.units {
		wg.Add(1)
		go func(u *calibUnit) {
			defer wg.Done()
			var own, ownRTT []float64
			var err error
			for err == nil && (len(own) == 0 || time.Now().Before(deadline)) {
				t0 := time.Now()
				u.run()
				own = append(own, time.Since(t0).Seconds())
				t0 = time.Now()
				err = c.rttUnit()
				ownRTT = append(ownRTT, time.Since(t0).Seconds())
			}
			mu.Lock()
			times = append(times, own...)
			rtts = append(rtts, ownRTT...)
			errs = append(errs, err)
			mu.Unlock()
		}(u)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	c.bursts = append(c.bursts, times)
	c.rtts = append(c.rtts, rtts)
	return len(c.bursts) - 1, nil
}

// speed is the machine's speed over the interval between bursts a and
// b: the geometric mean of the compute speed (calibUnitRef over the
// median compute unit time of both bursts) and the round-trip speed
// (likewise with rttUnitRef). Above 1 the machine ran faster than the
// reference.
func (c *calibrator) speed(a, b int) float64 {
	median := func(per [][]float64) float64 {
		return stats.Median(append(append([]float64(nil), per[a]...), per[b]...))
	}
	return math.Sqrt(calibUnitRef.Seconds() / median(c.bursts) * rttUnitRef.Seconds() / median(c.rtts))
}

// calibUnit is one unit of work shaped like the server's: a small
// store-and-forward packet simulation on a mesh (branchy,
// cache-resident), a dependent walk over a buffer larger than a small
// VM's last-level cache share (memory latency), and a JSON round trip
// plus a hash of the encoding (allocation, reflection, hashing). One
// unit takes about calibUnitRef.
type calibUnit struct {
	rng   uint64
	pos   []int32 // packet positions on a calibSide × calibSide mesh
	dst   []int32
	load  []int32 // packets that entered each node
	chase []uint32
	at    uint32
	doc   calibDoc
}

const (
	calibSide    = 32
	calibPackets = 2048
	calibSteps   = 24
	calibChase   = 1 << 22 // 16 MiB of uint32
	calibWalk    = 20000
)

type calibDoc struct {
	Name    string             `json:"name"`
	Values  []float64          `json:"values"`
	Labels  map[string]int     `json:"labels"`
	Nested  []calibDocEntry    `json:"nested"`
	Weights map[string]float64 `json:"weights"`
}

type calibDocEntry struct {
	Key   string `json:"key"`
	Count int    `json:"count"`
}

func newCalibUnit(seed uint64) *calibUnit {
	u := &calibUnit{rng: seed*0x9E3779B97F4A7C15 | 1}
	n := calibSide * calibSide
	u.load = make([]int32, n)
	for i := 0; i < calibPackets; i++ {
		u.pos = append(u.pos, int32(u.next()%uint64(n)))
		u.dst = append(u.dst, int32(u.next()%uint64(n)))
	}
	// One cycle through the whole buffer (Sattolo's shuffle), so the walk
	// never settles into a short, cached loop.
	u.chase = make([]uint32, calibChase)
	for i := range u.chase {
		u.chase[i] = uint32(i)
	}
	for i := len(u.chase) - 1; i > 0; i-- {
		j := int(u.next() % uint64(i))
		u.chase[i], u.chase[j] = u.chase[j], u.chase[i]
	}
	u.doc = calibDoc{Name: "calibration", Labels: map[string]int{}, Weights: map[string]float64{}}
	for i := 0; i < 128; i++ {
		u.doc.Values = append(u.doc.Values, float64(u.next()%1000)/7)
		key := string(rune('a'+i%26)) + string(rune('a'+i/26))
		u.doc.Labels[key] = i
		u.doc.Weights[key] = float64(i) / 3
		u.doc.Nested = append(u.doc.Nested, calibDocEntry{Key: key, Count: i * i})
	}
	return u
}

// next is xorshift64.
func (u *calibUnit) next() uint64 {
	u.rng ^= u.rng << 13
	u.rng ^= u.rng >> 7
	u.rng ^= u.rng << 17
	return u.rng
}

func (u *calibUnit) run() {
	// Dimension-order routing: each packet moves one hop per step, x
	// first; a packet that arrives gets a new destination.
	for s := 0; s < calibSteps; s++ {
		for i, p := range u.pos {
			x, y := p%calibSide, p/calibSide
			dx, dy := u.dst[i]%calibSide, u.dst[i]/calibSide
			switch {
			case x < dx:
				x++
			case x > dx:
				x--
			case y < dy:
				y++
			case y > dy:
				y--
			default:
				u.dst[i] = int32(u.next() % (calibSide * calibSide))
			}
			u.pos[i] = y*calibSide + x
			u.load[u.pos[i]]++
		}
	}
	for i := 0; i < calibWalk; i++ {
		u.at = u.chase[u.at]
	}
	b, err := json.Marshal(&u.doc)
	if err != nil {
		panic("netemubench: calibration: " + err.Error())
	}
	var back calibDoc
	if err := json.Unmarshal(b, &back); err != nil {
		panic("netemubench: calibration: " + err.Error())
	}
	sum := sha256.Sum256(b)
	u.at ^= uint32(sum[0]) & 1 // keeps the work live; the walk stays in range
}
